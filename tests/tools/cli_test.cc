// End-to-end tests of the pdspbench command line: they run the built binary
// and check exit codes and stdout. The golden files under tests/tools/golden
// pin every byte these invocations print (minus run ids, timestamps and
// wall clock); change them only together with a deliberate output change.

#include <sys/wait.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "tests/testing/temp_dir.h"

namespace pdsp {
namespace {

struct Outcome {
  int code = -1;
  std::string out;
  std::string err;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string Golden(const std::string& name) {
  return ReadFile(std::string(PDSP_CLI_GOLDEN_DIR) + "/" + name);
}

/// Runs `pdspbench <args>` inside the test's own temp directory.
Outcome RunCli(const std::string& args) {
  const std::string dir = testing::TestTempDir();
  const std::string err_path = dir + "/stderr.txt";
  const std::string command = "cd '" + dir + "' && '" + PDSPBENCH_BIN +
                              "' " + args + " 2>'" + err_path + "'";
  Outcome outcome;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return outcome;
  char buf[4096];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) {
    outcome.out.append(buf, n);
  }
  const int status = pclose(pipe);
  outcome.code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  outcome.err = ReadFile(err_path);
  return outcome;
}

/// Drops the first `n` comma-separated fields of every line.
std::string DropFields(const std::string& csv, int n) {
  std::istringstream in(csv);
  std::string line;
  std::string out;
  while (std::getline(in, line)) {
    size_t pos = 0;
    for (int i = 0; i < n; ++i) pos = line.find(',', pos) + 1;
    out += line.substr(pos) + "\n";
  }
  return out;
}

constexpr char kLinear[] =
    "--structure=linear --rate=5000 --nodes=2 --duration=0.6";

TEST(CliTest, ListAndPasses) {
  Outcome list = RunCli("--list");
  EXPECT_EQ(list.code, 0);
  EXPECT_EQ(list.out, Golden("list.txt"));
  Outcome passes = RunCli("analyze --list-passes");
  EXPECT_EQ(passes.code, 0);
  EXPECT_EQ(passes.out, Golden("list_passes.txt"));
}

TEST(CliTest, Analyze) {
  Outcome sg = RunCli("analyze SG --json");
  EXPECT_EQ(sg.code, 0);
  EXPECT_EQ(sg.out, Golden("analyze_sg.json"));
  Outcome all = RunCli("analyze all");
  EXPECT_EQ(all.code, 0);
  EXPECT_EQ(all.out, Golden("analyze_all.txt"));
}

TEST(CliTest, PlainRun) {
  Outcome run = RunCli(std::string(kLinear) + " --parallelism=2 --seed=7");
  EXPECT_EQ(run.code, 0) << run.err;
  EXPECT_EQ(run.out, Golden("run_linear.txt"));
}

TEST(CliTest, Sweep) {
  Outcome sweep =
      RunCli(std::string(kLinear) + " --parallelism=1,2 --seed=7 --jobs=2");
  EXPECT_EQ(sweep.code, 0) << sweep.err;
  const std::string out = std::regex_replace(
      sweep.out, std::regex("wall [0-9.]+s"), "wall <s>");
  EXPECT_EQ(out, Golden("sweep_linear.txt"));
}

TEST(CliTest, HistoryAndCompare) {
  const std::string ledger = testing::TestTempDir() + "/ledger.jsonl";
  std::remove(ledger.c_str());
  for (const char* seed : {"7", "8"}) {
    Outcome run = RunCli(std::string(kLinear) + " --parallelism=2 --seed=" +
                      seed + " --ledger=" + ledger);
    ASSERT_EQ(run.code, 0) << run.err;
    EXPECT_NE(run.out.find("ledger: appended linear-"), std::string::npos);
  }
  // run_id and timestamp_utc differ per run; every other column is pinned.
  Outcome history = RunCli("history --format=csv --ledger=" + ledger);
  EXPECT_EQ(history.code, 0);
  EXPECT_EQ(DropFields(history.out, 2), Golden("history.csv"));
  // The first line names the two run ids.
  Outcome compare = RunCli("compare linear~1 linear --ledger=" + ledger);
  EXPECT_EQ(compare.code, 0);
  EXPECT_EQ(compare.out.substr(compare.out.find('\n') + 1),
            Golden("compare.txt"));
}

TEST(CliTest, BadInputExitsTwo) {
  for (const char* args :
       {"--bogus", "analyze", "compare linear", "analyze SG WC",
        "--app=SG --structure=linear", "--app=linear", "history --limit=0",
        "diagnose SG --duration=0.5"}) {
    Outcome o = RunCli(args);
    EXPECT_EQ(o.code, 2) << args;
    EXPECT_EQ(o.out, "") << args;
  }
}

// A number must be the whole value and in range: trailing garbage, a
// fraction for an integer flag or a negative value for an unsigned one
// exits 2 with a message naming the flag.
TEST(CliTest, StrictNumbersNameTheFlag) {
  const std::string run = std::string(kLinear) + " ";
  const std::vector<std::pair<std::string, std::string>> cases = {
      {run + "--parallelism=2x", "--parallelism"},
      {run + "--parallelism=4.9", "--parallelism"},
      {run + "--parallelism=2,", "--parallelism"},
      {run + "--seed=-1", "--seed"},
      {run + "--rate=1e5x", "--rate"},
      {run + "--nodes=3.5", "--nodes"},
      {run + "--jobs=-1 --parallelism=1,2", "--jobs"},
      {"analyze SG --rate=1e5x", "--rate"},
      {"diagnose SG --seed=-1", "--seed"},
      {"history --limit=-1", "--limit"},
      {"report ledger.jsonl --limit=-1", "--limit"},
      {"compare a b --threshold=0.1x", "--threshold"},
      {"baseline write SG --repeats=2.5", "--repeats"},
  };
  for (const auto& [args, flag] : cases) {
    Outcome o = RunCli(args);
    EXPECT_EQ(o.code, 2) << args;
    EXPECT_NE(o.err.find(flag), std::string::npos) << args << ": " << o.err;
  }
}

// Flags an invocation would otherwise parse and never read: sweep-only
// flags on a plain run, --rate and a single degree on a --load run, and
// baseline write's measurement flags on baseline check (which replays each
// record's stored protocol). Each exits 2 before doing any work.
TEST(CliTest, FlagsTheInvocationIgnoresAreRejected) {
  const std::string run = std::string(kLinear) + " ";
  const std::vector<std::pair<std::string, std::string>> cases = {
      {run + "--jobs=2", "--jobs"},
      {run + "--parallelism=4 --jobs=2", "--jobs"},
      {run + "--progress", "--progress"},
      {run + "--progress=weird", "--progress"},
      {run + "--progress-file=p.jsonl", "--progress-file"},
      {"--load=x --rate=5000", "--rate"},
      {"--load=x --parallelism=8", "--parallelism"},
      {"--load=x --parallelism=1,2 --rate=5000", "--rate"},
      {"baseline check SG --parallelism=64", "--parallelism"},
      {"baseline check all --rate=5000", "--rate"},
      {"baseline check SG --cluster=c6525", "--cluster"},
      {"baseline check SG --nodes=2", "--nodes"},
      {"baseline check SG --repeats=2", "--repeats"},
      {"baseline check SG --duration=1", "--duration"},
      {"baseline check SG --seed=1", "--seed"},
  };
  for (const auto& [args, flag] : cases) {
    Outcome o = RunCli(args);
    EXPECT_EQ(o.code, 2) << args;
    EXPECT_EQ(o.out, "") << args;
    EXPECT_NE(o.err.find(flag + " "), std::string::npos)
        << args << ": " << o.err;
  }
}

// Every flag each subcommand accepts, listed apart from the CLI's own table
// so that a flag dropped from the table fails these tests.
const std::vector<std::pair<std::string, std::vector<std::string>>>&
FlagsBySubcommand() {
  static const std::vector<std::pair<std::string, std::vector<std::string>>>
      flags = {
          {"",
           {"app", "structure", "load", "rate", "parallelism", "jobs",
            "cluster", "nodes", "duration", "seed", "placement", "save",
            "store", "ledger", "artifacts", "progress", "progress-file",
            "profile", "mem-profile", "allow-invalid", "list"}},
          {"analyze",
           {"json", "strict", "dataflow", "list-passes", "cluster", "nodes",
            "parallelism", "rate"}},
          {"diagnose",
           {"parallelism", "rate", "cluster", "nodes", "duration", "seed",
            "json", "explain"}},
          {"history", {"ledger", "app", "limit", "json", "format"}},
          {"compare", {"ledger", "threshold", "sigmas", "json"}},
          {"baseline",
           {"dir", "ledger", "cluster", "nodes", "parallelism", "rate",
            "repeats", "duration", "seed", "threshold", "sigmas", "json"}},
          {"report",
           {"out", "against", "app", "limit", "title", "threshold",
            "sigmas"}},
      };
  return flags;
}

TEST(CliTest, HelpNamesEveryFlag) {
  for (const auto& [sub, flags] : FlagsBySubcommand()) {
    Outcome help = RunCli(sub + " --help");
    EXPECT_EQ(help.code, 0) << sub;
    EXPECT_EQ(help.out.rfind("usage: pdspbench", 0), 0u) << sub;
    for (const std::string& flag : flags) {
      EXPECT_TRUE(std::regex_search(help.out,
                                    std::regex("\n  --" + flag + "[=[ ]")))
          << sub << " --help lacks --" << flag;
    }
  }
}

// --list and analyze --list-passes stop right after parsing, so they prove
// cheaply that every run and analyze flag still parses; the other
// subcommands take all their flags on a small real invocation.
TEST(CliTest, EveryFlagStillParses) {
  const std::string dir = testing::TestTempDir();
  Outcome list = RunCli(
      "--list --app=SG --structure=linear --load=x --rate=5000 "
      "--parallelism=1,2 --jobs=0 --cluster=c6525 --nodes=2 --duration=1 "
      "--seed=1 --placement=random --save=x --store=runs --ledger=l.jsonl "
      "--artifacts=art --progress --progress=plain --progress-file=p.jsonl "
      "--profile --profile=50 --mem-profile --mem-profile=64 "
      "--allow-invalid");
  EXPECT_EQ(list.code, 0) << list.err;
  EXPECT_EQ(list.out, Golden("list.txt"));
  Outcome passes = RunCli(
      "analyze --list-passes --json --strict --dataflow --cluster=mixed "
      "--nodes=2 --parallelism=2 --rate=10");
  EXPECT_EQ(passes.code, 0) << passes.err;
  EXPECT_EQ(passes.out, Golden("list_passes.txt"));

  Outcome diagnose = RunCli(
      "diagnose linear --parallelism=1 --rate=1000 --cluster=m510 "
      "--nodes=1 --duration=0.6 --seed=3 --json --explain");
  EXPECT_EQ(diagnose.code, 0) << diagnose.err;
  const std::string ledger = dir + "/ledger.jsonl";
  std::remove(ledger.c_str());
  Outcome write = RunCli(
      "baseline write linear --dir=. --ledger=" + ledger +
      " --cluster=m510 --nodes=2 --parallelism=1 --rate=1000 --repeats=1 "
      "--duration=0.6 --seed=5 --threshold=0.2 --sigmas=1 --json");
  EXPECT_EQ(write.code, 0) << write.err;
  Outcome history = RunCli("history linear --ledger=" + ledger +
                        " --app=linear --limit=5 --json --format=csv");
  EXPECT_EQ(history.code, 0) << history.err;
  Outcome compare = RunCli("compare linear linear --ledger=" + ledger +
                        " --threshold=0.2 --sigmas=1 --json");
  EXPECT_EQ(compare.code, 0) << compare.err;
  Outcome report = RunCli("report " + ledger + " --out=r.html --against=" +
                       ledger +
                       " --app=linear --limit=5 --title=T --threshold=0.2 "
                       "--sigmas=1");
  EXPECT_EQ(report.code, 0) << report.err;
}

}  // namespace
}  // namespace pdsp
