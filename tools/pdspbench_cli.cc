// pdspbench — command-line front end, the library's equivalent of the
// paper's web UI + controller: pick an application or synthetic structure,
// an event rate, a parallelism degree and a cluster, and get the measured
// performance.
//
// Commands() is the single source of truth for what the CLI accepts: one
// entry per subcommand with its flags (kind, default, one-line help), its
// positional arguments and its handler. Args::Parse reads every argv
// against that table, and `pdspbench --help` / `pdspbench <sub> --help`
// print usage generated from it. FindTarget / ResolveTargets /
// ResolveSelection turn a `<abbrev>|<structure>|all` argument or an
// --app/--structure/--load selection into named plan factories.
//
// Exit status: 0 ok; 1 for findings, regressions or a failed run; 2 for
// usage errors; 130 when a sweep is interrupted.

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <initializer_list>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "src/analysis/analyzer.h"
#include "src/analysis/properties.h"
#include "src/apps/apps.h"
#include "src/common/file_util.h"
#include "src/common/string_util.h"
#include "src/exec/run_context.h"
#include "src/exec/sweep.h"
#include "src/harness/harness.h"
#include "src/harness/synthetic_suite.h"
#include "src/obs/artifacts.h"
#include "src/obs/compare.h"
#include "src/obs/diagnose.h"
#include "src/obs/host_profile.h"
#include "src/obs/ledger.h"
#include "src/obs/mem.h"
#include "src/obs/monitor.h"
#include "src/obs/prof.h"
#include "src/obs/report.h"
#include "src/sim/analytic.h"
#include "src/sim/simulation.h"
#include "src/store/run_store.h"
#include "src/workload/enumerator.h"

namespace pdsp {

namespace {

// --- command table and parser ---------------------------------------------

enum class Kind { kSwitch, kText, kInt, kUint, kNumber, kIntList };

/// Smallest value a numeric flag accepts.
struct Bound {
  double lo = -std::numeric_limits<double>::infinity();
  bool open = false;  ///< the value must exceed lo
};
constexpr Bound kAny{};
constexpr Bound kPositive{0.0, true};
constexpr Bound kNonNegative{0.0, false};
constexpr Bound kAtLeastOne{1.0, false};
constexpr Bound kOverHalf{0.5, true};

struct FlagSpec {
  const char* name;
  Kind kind;
  const char* meta;  ///< value placeholder in the usage text
  const char* def;   ///< default; for optional-value flags, the bare value
  const char* help;
  Bound bound = kAny;
  bool optional_value = false;  ///< `--name` alone means `--name=<def>`
};

class Args;

struct Command {
  const char* name;        ///< "" for the default run mode
  const char* positional;  ///< synopsis of the positional arguments
  size_t min_positional;
  size_t max_positional;
  const char* summary;
  std::vector<FlagSpec> flags;
  int (*handler)(const Args&);
};

/// Strict numeric parse: the whole text is one number of type T — no sign
/// for unsigned T, no fraction for integral T — within T's range.
template <typename T>
std::optional<T> ParseNumber(const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  return value;
}

/// Empty when `text` is a valid value of `flag`, else what is wrong.
std::string CheckValue(const FlagSpec& flag, const std::string& text) {
  if (flag.kind == Kind::kSwitch || flag.kind == Kind::kText) return "";
  const std::vector<std::string> parts =
      flag.kind == Kind::kIntList ? Split(text, ',')
                                  : std::vector<std::string>{text};
  for (const std::string& part : parts) {
    std::optional<double> value;
    const char* expected = "a number";
    if (flag.kind == Kind::kUint) {
      expected = "a non-negative integer";
      if (auto v = ParseNumber<uint64_t>(part)) {
        value = static_cast<double>(*v);
      }
    } else if (flag.kind == Kind::kNumber) {
      value = ParseNumber<double>(part);
    } else {
      expected = "an integer";
      if (auto v = ParseNumber<int>(part)) value = *v;
    }
    if (!value) return "'" + part + "' is not " + expected;
    if (*value < flag.bound.lo ||
        (flag.bound.open && *value == flag.bound.lo)) {
      return StrFormat("%s must be %s %g", part.c_str(),
                       flag.bound.open ? ">" : ">=", flag.bound.lo);
    }
  }
  return "";
}

/// The parsed command line: positional arguments plus every flag's value,
/// given or default. Given values passed CheckValue.
class Args {
 public:
  explicit Args(const Command& command) : command_(&command) {
    for (const FlagSpec& f : command.flags) values_[f.name] = f.def;
  }

  const Command& command() const { return *command_; }
  /// The i-th positional argument, or "" when absent.
  std::string Positional(size_t i) const {
    return i < positional_.size() ? positional_[i] : "";
  }
  size_t NumPositional() const { return positional_.size(); }

  /// True when the flag appeared on the command line.
  bool Has(const std::string& name) const { return given_.count(name) > 0; }
  const std::string& Str(const std::string& name) const {
    return values_.at(name);
  }
  int Int(const std::string& name) const {
    return ParseNumber<int>(Str(name)).value();
  }
  uint64_t Uint(const std::string& name) const {
    return ParseNumber<uint64_t>(Str(name)).value();
  }
  double Num(const std::string& name) const {
    return ParseNumber<double>(Str(name)).value();
  }
  std::vector<int> Ints(const std::string& name) const {
    std::vector<int> out;
    for (const std::string& part : Split(Str(name), ',')) {
      out.push_back(ParseNumber<int>(part).value());
    }
    return out;
  }

  /// Reads argv[0..argc) against the command's table.
  Status Parse(int argc, char** argv) {
    for (int i = 0; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.empty() || arg[0] != '-') {
        if (positional_.size() >= command_->max_positional) {
          return Status::InvalidArgument("unexpected argument '" + arg + "'");
        }
        positional_.push_back(arg);
        continue;
      }
      const size_t eq = arg.find('=');
      const std::string name = arg.substr(0, eq);
      const FlagSpec* flag = nullptr;
      for (const FlagSpec& f : command_->flags) {
        if (name == std::string("--") + f.name) flag = &f;
      }
      if (flag == nullptr) {
        return Status::InvalidArgument("unknown flag " + name);
      }
      if (eq == std::string::npos) {
        if (flag->kind != Kind::kSwitch && !flag->optional_value) {
          return Status::InvalidArgument(name + " needs a value");
        }
        values_[flag->name] = flag->def;
      } else {
        if (flag->kind == Kind::kSwitch) {
          return Status::InvalidArgument(name + " takes no value");
        }
        const std::string value = arg.substr(eq + 1);
        if (std::string why = CheckValue(*flag, value); !why.empty()) {
          return Status::InvalidArgument(name + ": " + why);
        }
        values_[flag->name] = value;
      }
      given_.insert(flag->name);
    }
    if (positional_.size() < command_->min_positional) {
      return Status::InvalidArgument(std::string("missing ") +
                                     command_->positional);
    }
    return Status::OK();
  }

 private:
  const Command* command_;
  std::vector<std::string> positional_;
  std::map<std::string, std::string> values_;
  std::set<std::string> given_;
};

std::string Synopsis(const Command& c) {
  std::string out = "pdspbench";
  for (const char* part : {c.name, c.positional}) {
    if (*part != '\0') out.append(" ").append(part);
  }
  return out + " [flags]";
}

std::string FlagUsage(const FlagSpec& f) {
  std::string left = std::string("--") + f.name;
  if (f.kind != Kind::kSwitch) {
    left.append(f.optional_value ? "[=" : "=").append(f.meta);
    if (f.optional_value) left += "]";
  }
  std::string line = StrFormat("  %-24s %s", left.c_str(), f.help);
  if (f.kind != Kind::kSwitch && *f.def != '\0') {
    line.append(f.optional_value ? " [bare: " : " [default ")
        .append(f.def)
        .append("]");
  }
  return line + "\n";
}

const std::vector<Command>& Commands();

/// Usage text of one subcommand; the run mode's also lists the others.
std::string Usage(const Command& c) {
  std::string out = "usage: " + Synopsis(c) + "\n" + c.summary + "\n";
  if (*c.name == '\0') {
    out += "\nsubcommands (pdspbench <subcommand> --help for their flags):\n";
    for (const Command& sub : Commands()) {
      if (*sub.name != '\0') out += "  " + Synopsis(sub) + "\n";
    }
  }
  out += "\nflags:\n";
  for (const FlagSpec& f : c.flags) out += FlagUsage(f);
  return out + FlagUsage({"help", Kind::kSwitch, "", "", "print this help"});
}

int UsageError(const Command& c, const std::string& message) {
  const std::string self =
      *c.name == '\0' ? "pdspbench" : std::string("pdspbench ") + c.name;
  std::fprintf(stderr, "%s: %s\nusage: %s\n(%s --help lists the flags)\n",
               self.c_str(), message.c_str(), Synopsis(c).c_str(),
               self.c_str());
  return 2;
}

// --- plan targets ----------------------------------------------------------

/// A named plan factory: what `<abbrev>|<structure>|all`, --app,
/// --structure and --load resolve to.
struct Target {
  std::string name;   ///< abbrev, structure name or stored run id
  std::string title;  ///< human description
  /// Builds the plan at an event rate and a uniform operator degree. A
  /// stored plan ignores the rate and keeps its recorded degrees when
  /// degree is 0.
  std::function<Result<LogicalPlan>(double rate, int degree)> make_plan;
};

enum TargetKinds : unsigned { kApps = 1, kStructures = 2, kAllKinds = 3 };

/// The catalog: the 14 applications, then the 9 synthetic structures.
std::vector<Target> Catalog(unsigned kinds = kAllKinds) {
  std::vector<Target> out;
  if ((kinds & kApps) != 0) {
    for (const AppInfo& info : AllApps()) {
      const AppId id = info.id;
      out.push_back({info.abbrev, info.name, [id](double rate, int degree) {
                       AppOptions opt;
                       opt.event_rate = rate;
                       opt.parallelism = degree;
                       return MakeApp(id, opt);
                     }});
    }
  }
  if ((kinds & kStructures) != 0) {
    for (SyntheticStructure s : AllSyntheticStructures()) {
      const std::string name = SyntheticStructureToString(s);
      out.push_back({name, "synthetic " + name, [s](double rate, int degree) {
                       CanonicalOptions opt;
                       opt.event_rate = rate;
                       opt.parallelism = degree;
                       return MakeCanonicalSynthetic(s, opt);
                     }});
    }
  }
  return out;
}

Result<Target> FindTarget(const std::string& name,
                          unsigned kinds = kAllKinds) {
  for (Target& t : Catalog(kinds)) {
    if (t.name == name) return std::move(t);
  }
  const char* what = kinds == kApps         ? "application"
                     : kinds == kStructures ? "structure"
                                            : "app or structure";
  return Status::NotFound(StrFormat("unknown %s '%s' (use --list for the "
                                    "catalog)",
                                    what, name.c_str()));
}

/// `<abbrev>|<structure>|all`: one catalog entry, or the whole catalog.
Result<std::vector<Target>> ResolveTargets(const std::string& spec) {
  if (spec == "all") return Catalog();
  PDSP_ASSIGN_OR_RETURN(Target target, FindTarget(spec));
  return std::vector<Target>{std::move(target)};
}

/// The run mode's plan: --app, --structure or a --load from --store (the
/// caller checked that exactly one is set).
Result<Target> ResolveSelection(const Args& args) {
  if (!args.Str("app").empty()) return FindTarget(args.Str("app"), kApps);
  if (!args.Str("structure").empty()) {
    return FindTarget(args.Str("structure"), kStructures);
  }
  const std::string id = args.Str("load");
  const std::string store_dir = args.Str("store");
  return Target{id, "stored run " + id,
                [id, store_dir](double, int degree) -> Result<LogicalPlan> {
                  PDSP_ASSIGN_OR_RETURN(LogicalPlan plan,
                                        RunStore(store_dir).LoadPlan(id));
                  if (degree > 0) {
                    PDSP_RETURN_NOT_OK(ApplyUniformParallelism(&plan, degree));
                  }
                  return plan;
                }};
}

/// Builds a target's plan inside the host profiler's "build-plan" phase.
Result<LogicalPlan> BuildPlan(const Target& target, double rate, int degree) {
  obs::HostProfiler::Phase phase(&obs::HostProfiler::Global(), "build-plan");
  return target.make_plan(rate, degree);
}

// --- shared helpers ---------------------------------------------------------

void PrintCatalog() {
  std::printf("applications (--app):\n");
  for (const AppInfo& info : AllApps()) {
    std::printf("  %-5s %-22s %s\n", info.abbrev, info.name,
                info.description);
  }
  std::printf("\nsynthetic structures (--structure):\n");
  for (SyntheticStructure s : AllSyntheticStructures()) {
    std::printf("  %s\n", SyntheticStructureToString(s));
  }
}

Result<Cluster> MakeCluster(const std::string& name, int nodes) {
  if (name == "m510") return Cluster::M510(nodes);
  if (name == "c6525") return Cluster::C6525(nodes);
  if (name == "c6320") return Cluster::C6320(nodes);
  if (name == "mixed") return Cluster::Mixed(nodes);
  return Status::InvalidArgument("unknown cluster '" + name + "'");
}

Result<Cluster> MakeCluster(const Args& args) {
  return MakeCluster(args.Str("cluster"), args.Int("nodes"));
}

Result<PlacementKind> MakePlacement(const std::string& name) {
  if (name == "round_robin") return PlacementKind::kRoundRobin;
  if (name == "least_loaded") return PlacementKind::kLeastLoaded;
  if (name == "locality") return PlacementKind::kLocality;
  if (name == "random") return PlacementKind::kRandom;
  return Status::InvalidArgument("unknown placement '" + name + "'");
}

/// Prints a failed status to stderr and returns the usage-error exit code.
int Fail(const Status& status) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  return 2;
}

/// Usage error (exit 2) naming the first of `flags` given on the command
/// line, followed by `why`; 0 when none of them was given.
int RejectGiven(const Args& args, std::initializer_list<const char*> flags,
                const char* why) {
  for (const char* flag : flags) {
    if (args.Has(flag)) {
      return UsageError(args.command(),
                        StrFormat("--%s %s", flag, why));
    }
  }
  return 0;
}

obs::CompareOptions MakeCompareOptions(const Args& args) {
  obs::CompareOptions options;
  options.threshold = args.Num("threshold");
  options.noise_sigmas = args.Num("sigmas");
  return options;
}

/// Collects analyze/diagnose outcomes into one JSON document or a text
/// report, with error and warning totals over every plan.
struct PlanTally {
  bool json;
  size_t errors = 0;
  size_t warnings = 0;
  Json plans = Json::Array();

  /// A plan that could not be built, run or diagnosed counts as an error.
  void Failed(const Target& t, const char* json_key, const char* stage,
              const Status& status) {
    ++errors;
    if (json) {
      Json j = Json::Object();
      j.Set("plan", Json::Str(t.name));
      j.Set(json_key, Json::Str(status.ToString()));
      plans.Append(std::move(j));
    } else {
      std::printf("== %s (%s) ==\n%s failed: %s\n\n", t.name.c_str(),
                  t.title.c_str(), stage, status.ToString().c_str());
    }
  }

  void Count(const analysis::AnalysisReport& report) {
    const size_t e = report.NumErrors();
    errors += e;
    warnings += report.CountAtLeast(analysis::Severity::kWarning) - e;
  }

  /// Prints the JSON document or the totals line; 1 when any plan erred.
  int Finish(const char* verb, size_t n) {
    if (json) {
      Json out = Json::Object();
      out.Set("plans", std::move(plans));
      out.Set("errors", Json::Int(static_cast<int64_t>(errors)));
      out.Set("warnings", Json::Int(static_cast<int64_t>(warnings)));
      std::printf("%s\n", out.Dump(2).c_str());
    } else {
      std::printf("%s %zu plan%s: %zu error%s, %zu warning%s\n", verb, n,
                  n == 1 ? "" : "s", errors, errors == 1 ? "" : "s",
                  warnings, warnings == 1 ? "" : "s");
    }
    return errors > 0 ? 1 : 0;
  }
};

// --- analyze / diagnose ------------------------------------------------------

int AnalyzeMain(const Args& args) {
  if (args.Has("list-passes")) {
    std::printf("registered analysis passes:\n");
    const analysis::PassRegistry& passes = analysis::DefaultPasses();
    for (const std::string& name : passes.Names()) {
      const analysis::AnalysisPass* pass = passes.Find(name);
      std::printf("  %-24s %s%s\n", name.c_str(), pass->description(),
                  pass->needs_cluster() ? " (needs cluster)" : "");
    }
    return 0;
  }
  if (args.NumPositional() == 0) {
    return UsageError(args.command(),
                      std::string("missing ") + args.command().positional);
  }
  auto cluster = MakeCluster(args);
  if (!cluster.ok()) return Fail(cluster.status());
  auto targets = ResolveTargets(args.Positional(0));
  if (!targets.ok()) return Fail(targets.status());

  const bool dataflow = args.Has("dataflow");
  analysis::AnalyzeOptions options;
  options.cluster = &*cluster;
  PlanTally tally{args.Has("json")};
  for (const Target& t : *targets) {
    const Result<LogicalPlan> plan =
        t.make_plan(args.Num("rate"), args.Int("parallelism"));
    if (!plan.ok()) {
      // The plan factory itself refused (Build()'s error gate or a latched
      // builder error) — report it as a failed target.
      tally.Failed(t, "build_error", "build", plan.status());
      continue;
    }
    const analysis::AnalysisReport report =
        analysis::AnalyzePlan(*plan, options);
    tally.Count(report);
    if (tally.json) {
      Json j = Json::Object();
      j.Set("plan", Json::Str(t.name));
      j.Set("report", report.ToJson());
      if (dataflow) {
        const analysis::AnalysisContext ctx =
            analysis::AnalysisContext::Make(*plan, &*cluster);
        j.Set("properties", ctx.props->ToJson(*plan));
      }
      tally.plans.Append(std::move(j));
    } else {
      std::printf("== %s (%s) ==\n%s\n", t.name.c_str(), t.title.c_str(),
                  report.ToString().c_str());
      if (dataflow) {
        const analysis::AnalysisContext ctx =
            analysis::AnalysisContext::Make(*plan, &*cluster);
        std::printf("derived properties:\n%s\n",
                    ctx.props->ToString(*plan).c_str());
      }
    }
  }
  const int code = tally.Finish("analyzed", targets->size());
  return code != 0 || (args.Has("strict") && tally.warnings > 0) ? 1 : 0;
}

int DiagnoseMain(const Args& args) {
  auto cluster = MakeCluster(args);
  if (!cluster.ok()) return Fail(cluster.status());
  auto targets = ResolveTargets(args.Positional(0));
  if (!targets.ok()) return Fail(targets.status());

  const double duration = args.Num("duration");
  PlanTally tally{args.Has("json")};
  for (const Target& t : *targets) {
    const Result<LogicalPlan> plan =
        t.make_plan(args.Num("rate"), args.Int("parallelism"));
    if (!plan.ok()) {
      tally.Failed(t, "error", "build", plan.status());
      continue;
    }
    ExecutionOptions exec;
    exec.sim.duration_s = duration;
    exec.sim.warmup_s = duration * 0.2;
    exec.sim.seed = args.Uint("seed");
    exec.sim.attribute_latency = true;
    auto run = ExecutePlan(*plan, *cluster, exec);
    if (!run.ok()) {
      tally.Failed(t, "error", "run", run.status());
      continue;
    }
    auto diag = obs::DiagnoseRun(*plan, *cluster, *run);
    if (!diag.ok()) {
      tally.Failed(t, "error", "diagnosis", diag.status());
      continue;
    }
    tally.Count(diag->report);
    if (tally.json) {
      Json j = Json::Object();
      j.Set("plan", Json::Str(t.name));
      j.Set("median_latency_s", Json::Number(run->median_latency_s));
      j.Set("throughput_tps", Json::Number(run->throughput_tps));
      j.Set("diagnosis", diag->ToJson());
      tally.plans.Append(std::move(j));
    } else {
      std::printf("== %s (%s) ==\nmeasured: %s\n%s\n", t.name.c_str(),
                  t.title.c_str(), run->Summary().c_str(),
                  args.Has("explain") ? diag->Explain(*run).c_str()
                                      : diag->ToString().c_str());
    }
  }
  return tally.Finish("diagnosed", targets->size());
}

// --- history / compare / baseline / report ----------------------------------

/// RFC-4180 CSV field: quoted (with doubled inner quotes) only when the
/// value contains a delimiter, quote or newline, so plain numeric fields
/// stay byte-identical to their printf form.
std::string CsvField(const std::string& value) {
  if (value.find_first_of(",\"\n\r") == std::string::npos) return value;
  std::string out = "\"";
  for (const char c : value) {
    out += c;
    if (c == '"') out += '"';  // RFC 4180: escape by doubling
  }
  out += '"';
  return out;
}

int HistoryMain(const Args& args) {
  // --app alone scopes large ledgers.
  const std::string target =
      args.NumPositional() == 0 ? "all" : args.Positional(0);
  const std::string& ledger_path = args.Str("ledger");
  const std::string& app_filter = args.Str("app");
  const std::string& format = args.Str("format");
  const size_t limit = static_cast<size_t>(args.Int("limit"));
  if (format != "table" && format != "csv") {
    return UsageError(args.command(), "--format must be table or csv");
  }
  auto records = obs::RunLedger(ledger_path).Load();
  if (!records.ok()) return Fail(records.status());
  std::vector<const obs::RunRecord*> selected;
  for (const obs::RunRecord& r : *records) {
    if (target != "all" && r.label != target) continue;
    if (!app_filter.empty() && obs::AppOfLabel(r.label) != app_filter) {
      continue;
    }
    selected.push_back(&r);
  }
  if (selected.size() > limit) {
    selected.erase(selected.begin(),
                   selected.end() - static_cast<ptrdiff_t>(limit));
  }
  if (args.Has("json")) {
    Json arr = Json::Array();
    for (const obs::RunRecord* r : selected) arr.Append(r->ToJson());
    Json out = Json::Object();
    out.Set("ledger", Json::Str(ledger_path));
    out.Set("records", std::move(arr));
    std::printf("%s\n", out.Dump(2).c_str());
    return 0;
  }
  if (format == "csv") {
    // Header always prints so a filtered-to-empty selection still yields a
    // valid CSV document.
    std::printf(
        "run_id,timestamp_utc,label,plan_hash,parallelism,event_rate,"
        "cluster,nodes,seed,repeats,duration_s,throughput_tps,"
        "median_latency_s,p95_latency_s,p99_latency_s,late_drops,"
        "backpressure_skipped,diagnosis_codes,determinism,artifact_dir,"
        "profile_samples,profile_cpu_s,profile_top_operator,"
        "peak_heap_bytes,bytes_per_tuple,alloc_samples\n");
    for (const obs::RunRecord* r : selected) {
      const std::vector<std::string> fields = {
          r->run_id,
          r->timestamp_utc,
          r->label,
          r->plan_hash,
          StrFormat("%d", r->parallelism),
          StrFormat("%.17g", r->event_rate),
          r->cluster,
          StrFormat("%d", r->nodes),
          r->seed,
          StrFormat("%d", r->repeats),
          StrFormat("%.17g", r->duration_s),
          StrFormat("%.17g", r->throughput_tps),
          StrFormat("%.17g", r->median_latency_s),
          StrFormat("%.17g", r->p95_latency_s),
          StrFormat("%.17g", r->p99_latency_s),
          StrFormat("%lld", static_cast<long long>(r->late_drops)),
          StrFormat("%lld",
                    static_cast<long long>(r->backpressure_skipped)),
          Join(r->diagnosis_codes, ";"),
          r->determinism,
          r->artifact_dir,
          StrFormat("%lld", static_cast<long long>(r->profile_samples)),
          StrFormat("%.17g", r->profile_cpu_s),
          r->profile_top_operator,
          // Memory columns stay empty for records predating --mem-profile
          // (and for unprofiled runs) so old ledgers load cleanly.
          r->mem_samples > 0
              ? StrFormat("%lld",
                          static_cast<long long>(r->mem_peak_heap_bytes))
              : "",
          r->mem_samples > 0 ? StrFormat("%.17g", r->mem_bytes_per_tuple)
                             : "",
          r->mem_samples > 0
              ? StrFormat("%lld", static_cast<long long>(r->mem_samples))
              : "",
      };
      std::vector<std::string> quoted;
      quoted.reserve(fields.size());
      for (const std::string& f : fields) quoted.push_back(CsvField(f));
      std::printf("%s\n", Join(quoted, ",").c_str());
    }
    return 0;
  }
  if (selected.empty()) {
    std::printf("no ledger records for '%s' in %s\n", target.c_str(),
                ledger_path.c_str());
    return 0;
  }
  std::printf("%-34s %-20s %-14s %4s %9s %10s %10s %12s  %s\n", "run_id",
              "timestamp", "label", "p", "rate", "p50(ms)", "p95(ms)",
              "tput(t/s)", "codes");
  for (const obs::RunRecord* r : selected) {
    std::printf("%-34s %-20s %-14s %4d %9.0f %10.2f %10.2f %12.0f  %s\n",
                r->run_id.c_str(), r->timestamp_utc.c_str(),
                r->label.c_str(), r->parallelism, r->event_rate,
                r->median_latency_s * 1e3, r->p95_latency_s * 1e3,
                r->throughput_tps, Join(r->diagnosis_codes, ",").c_str());
  }
  return 0;
}

int CompareMain(const Args& args) {
  auto records = obs::RunLedger(args.Str("ledger")).Load();
  if (!records.ok()) return Fail(records.status());
  auto baseline = obs::ResolveRecord(*records, args.Positional(0));
  if (!baseline.ok()) return Fail(baseline.status());
  auto candidate = obs::ResolveRecord(*records, args.Positional(1));
  if (!candidate.ok()) return Fail(candidate.status());
  const obs::ComparisonReport report =
      obs::CompareRecords(*baseline, *candidate, MakeCompareOptions(args));
  if (args.Has("json")) {
    std::printf("%s\n", report.ToJson().Dump(2).c_str());
  } else {
    std::printf("%s", report.ToString().c_str());
  }
  return report.HasRegressions() ? 1 : 0;
}

std::string BaselineFilePath(const std::string& dir,
                             const std::string& label) {
  std::string name = label;
  std::replace(name.begin(), name.end(), '/', '_');
  return dir + "/" + name + ".json";
}

/// Measures `target` under `protocol` and returns the cell's ledger record.
Result<obs::RunRecord> MeasureForLedger(const Target& target, double rate,
                                        int parallelism,
                                        const Cluster& cluster,
                                        RunProtocol protocol) {
  PDSP_ASSIGN_OR_RETURN(LogicalPlan plan,
                        BuildPlan(target, rate, parallelism));
  protocol.label = target.name;
  PDSP_ASSIGN_OR_RETURN(CellResult cell,
                        MeasureCell(plan, cluster, protocol));
  return cell.ledger_record;
}

/// `baseline write`: measures each target and stores its RunRecord.
int BaselineWrite(const Args& args) {
  auto cluster = MakeCluster(args);
  if (!cluster.ok()) return Fail(cluster.status());
  auto targets = ResolveTargets(args.Positional(1));
  if (!targets.ok()) return Fail(targets.status());
  const double duration = args.Num("duration");
  RunProtocol protocol;
  protocol.repeats = args.Int("repeats");
  protocol.duration_s = duration;
  protocol.warmup_s = duration * 0.25;
  protocol.seed = args.Uint("seed");
  protocol.ledger.enabled = true;
  protocol.ledger.path = args.Str("ledger");
  protocol.ledger.cluster_name = args.Str("cluster");
  int failures = 0;
  for (const Target& t : *targets) {
    auto record = MeasureForLedger(t, args.Num("rate"),
                                   args.Int("parallelism"), *cluster,
                                   protocol);
    const std::string path = BaselineFilePath(args.Str("dir"), t.name);
    Status st = record.ok() ? WriteTextFileAtomic(
                                  path, record->ToJson().Dump(2) + "\n")
                            : record.status();
    if (!st.ok()) {
      std::fprintf(stderr, "baseline write %s: %s\n", t.name.c_str(),
                   st.ToString().c_str());
      ++failures;
      continue;
    }
    std::printf("baseline %s: p50 %.2f ms, tput %.0f t/s -> %s\n",
                t.name.c_str(), record->median_latency_s * 1e3,
                record->throughput_tps, path.c_str());
  }
  return failures > 0 ? 2 : 0;
}

/// Re-measures the baseline stored under `label` with its recorded
/// protocol (same seed, repeats, rate, parallelism and cluster preset), so
/// the comparison is bit-for-bit re-executable.
Result<obs::ComparisonReport> CheckBaseline(const Args& args,
                                            const std::string& label) {
  PDSP_ASSIGN_OR_RETURN(std::string text,
                        ReadTextFile(BaselineFilePath(args.Str("dir"),
                                                      label)));
  PDSP_ASSIGN_OR_RETURN(Json parsed, Json::Parse(text));
  PDSP_ASSIGN_OR_RETURN(obs::RunRecord base,
                        obs::RunRecord::FromJson(parsed));
  PDSP_ASSIGN_OR_RETURN(Cluster cluster, MakeCluster(base.cluster, base.nodes));
  PDSP_ASSIGN_OR_RETURN(Target target, FindTarget(base.label));
  RunProtocol protocol;
  protocol.repeats = base.repeats;
  protocol.duration_s = base.duration_s;
  protocol.warmup_s = base.warmup_s;
  // A stored record, not CLI input: read back the way it was written.
  protocol.seed = std::strtoull(base.seed.c_str(), nullptr, 10);
  protocol.ledger.enabled = true;
  protocol.ledger.path = args.Str("ledger");
  protocol.ledger.cluster_name = base.cluster;
  PDSP_ASSIGN_OR_RETURN(obs::RunRecord record,
                        MeasureForLedger(target, base.event_rate,
                                         base.parallelism, cluster,
                                         protocol));
  return obs::CompareRecords(base, record, MakeCompareOptions(args));
}

/// `baseline check`: exit 1 on a regression beyond --threshold.
int BaselineCheck(const Args& args) {
  if (int code = RejectGiven(
          args,
          {"cluster", "nodes", "parallelism", "rate", "repeats", "duration",
           "seed"},
          "applies only to baseline write: check replays each record's "
          "stored protocol")) {
    return code;
  }
  const std::string& dir = args.Str("dir");
  std::vector<std::string> labels;
  if (args.Positional(1) == "all") {
    // check all = every stored baseline file.
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
      if (entry.path().extension() == ".json") {
        labels.push_back(entry.path().stem().string());
      }
    }
    std::sort(labels.begin(), labels.end());
    if (labels.empty()) {
      std::fprintf(stderr, "no baselines under %s\n", dir.c_str());
      return 2;
    }
  } else {
    labels.push_back(args.Positional(1));
  }
  int failures = 0;
  size_t regressed_metrics = 0;
  Json all = Json::Array();
  for (const std::string& label : labels) {
    auto report = CheckBaseline(args, label);
    if (!report.ok()) {
      std::fprintf(stderr, "baseline check %s: %s\n", label.c_str(),
                   report.status().ToString().c_str());
      ++failures;
      continue;
    }
    regressed_metrics += report->CountVerdict(obs::MetricVerdict::kRegressed);
    if (args.Has("json")) {
      all.Append(report->ToJson());
    } else {
      std::printf("%s", report->ToString().c_str());
    }
  }
  if (args.Has("json")) {
    Json out = Json::Object();
    out.Set("baselines", std::move(all));
    out.Set("regressed", Json::Int(static_cast<int64_t>(regressed_metrics)));
    out.Set("failures", Json::Int(failures));
    std::printf("%s\n", out.Dump(2).c_str());
  }
  if (failures > 0) return 2;
  return regressed_metrics > 0 ? 1 : 0;
}

int BaselineMain(const Args& args) {
  const std::string verb = args.Positional(0);
  if (verb == "write") return BaselineWrite(args);
  if (verb == "check") return BaselineCheck(args);
  return UsageError(args.command(), "unknown verb '" + verb +
                                        "' (write or check)");
}

int ReportMain(const Args& args) {
  obs::ReportOptions options;
  options.against_path = args.Str("against");
  options.app_filter = args.Str("app");
  options.title = args.Str("title");
  options.limit = static_cast<size_t>(args.Int("limit"));
  options.compare = MakeCompareOptions(args);
  const std::string& out_path = args.Str("out");
  auto stats = obs::WriteReportFile(args.Positional(0), out_path, options);
  if (!stats.ok()) {
    std::fprintf(stderr, "report: %s\n", stats.status().ToString().c_str());
    return 2;
  }
  std::printf("report: %zu records, %zu apps, %zu charts%s -> %s\n",
              stats->records, stats->apps, stats->charts,
              options.against_path.empty()
                  ? ""
                  : StrFormat(" (%zu labels compared)", stats->compared)
                        .c_str(),
              out_path.c_str());
  return 0;
}

// --- run mode: one plan, or a parallelism sweep ------------------------------

/// The protocol of a plain run or of one sweep cell: a single repeat over
/// --duration with a 20% warmup, plus the provenance and profiling the
/// flags ask for.
RunProtocol MakeRunProtocol(const Args& args, const std::string& label,
                            PlacementKind placement) {
  RunProtocol protocol;
  protocol.repeats = 1;
  protocol.duration_s = args.Num("duration");
  protocol.warmup_s = protocol.duration_s * 0.2;
  protocol.seed = args.Uint("seed");
  protocol.placement = placement;
  protocol.label = label;
  protocol.allow_invalid = args.Has("allow-invalid");
  if (!args.Str("ledger").empty()) {
    protocol.ledger.enabled = true;
    protocol.ledger.path = args.Str("ledger");
    protocol.ledger.cluster_name = args.Str("cluster");
  }
  if (!args.Str("artifacts").empty()) {
    protocol.obs.enabled = true;
    protocol.obs.dir = args.Str("artifacts");
  }
  if (args.Has("profile")) {
    protocol.profile.enabled = true;
    protocol.profile.hz = args.Num("profile");
  }
  if (args.Has("mem-profile")) {
    protocol.mem.enabled = true;
    protocol.mem.sample_interval_bytes =
        static_cast<int64_t>(args.Num("mem-profile") * 1024.0);
  }
  return protocol;
}

// `--parallelism=2,8,32` fans one cell per degree across --jobs workers via
// the exec sweep scheduler; per-cell results are bit-identical to --jobs=1.
int RunParallelismSweep(const Args& args, const Target& target,
                        const Cluster& cluster,
                        const RunProtocol& protocol) {
  const std::vector<int> degrees = args.Ints("parallelism");
  const double rate = args.Num("rate");
  std::vector<exec::SweepCell> cells;
  for (int degree : degrees) {
    exec::SweepCell cell;
    cell.make_plan = [make_plan = target.make_plan, rate, degree] {
      return make_plan(rate, degree);
    };
    cell.cluster = cluster;
    cell.protocol = protocol;
    cell.label = StrFormat("%s/p%d", target.name.c_str(), degree);
    if (protocol.obs.enabled) {
      cell.protocol.obs.dir = protocol.obs.dir + "/" + cell.label;
    }
    cells.push_back(std::move(cell));
  }

  exec::SweepOptions options;
  options.jobs = args.Int("jobs");
  options.name = StrFormat("sweep/%s", target.name.c_str());
  // Ctrl-C drains in-flight cells and still flushes completed-cell ledger
  // records plus the final monitor snapshot; we exit 130 below.
  options.install_sigint = true;
  if (args.Has("progress") || !args.Str("progress-file").empty()) {
    auto mode = obs::ParseRenderMode(args.Str("progress"),
                                     isatty(fileno(stderr)) != 0);
    if (!mode.ok()) return Fail(mode.status());
    options.monitor.enabled = true;
    options.monitor.render = args.Has("progress")
                                 ? *mode
                                 : obs::MonitorOptions::RenderMode::kOff;
    options.monitor.jsonl_path = args.Str("progress-file");
  }
  // With --ledger, one summary record per sweep invocation: parallelism =
  // worker count, host_wall_s = sweep wall clock. bench_gate.sh reads
  // consecutive summary pairs (jobs=1 vs jobs=N) to report the speedup.
  options.summary_ledger = protocol.ledger;
  const exec::SweepResult sweep = exec::RunSweep(cells, options);

  TableReporter table(
      StrFormat("%s: parallelism sweep (%s x%d, %.0f ev/s)",
                target.name.c_str(), args.Str("cluster").c_str(),
                args.Int("nodes"), rate),
      {"parallelism", "p50(ms)", "p95(ms)", "results/s", "late", "bp"});
  for (size_t i = 0; i < sweep.cells.size(); ++i) {
    const int degree = degrees[i];
    const exec::SweepCellOutcome& outcome = sweep.cells[i];
    if (!outcome.result.ok()) {
      std::fprintf(stderr, "p=%d: %s\n", degree,
                   outcome.result.status().ToString().c_str());
      table.AddRow({StrFormat("%d", degree), "n/a", "n/a", "n/a", "n/a",
                    "n/a"});
      continue;
    }
    const CellResult& cell = *outcome.result;
    table.AddRow({StrFormat("%d", degree),
                  LatencyCell(cell.mean_median_latency_s),
                  LatencyCell(cell.p95_latency_s),
                  ThroughputCell(cell.mean_throughput_tps),
                  StrFormat("%lld", static_cast<long long>(cell.late_drops)),
                  StrFormat("%lld",
                            static_cast<long long>(
                                cell.backpressure_skipped))});
  }
  table.Print();
  for (size_t i = 0; i < sweep.cells.size(); ++i) {
    const exec::SweepCellOutcome& outcome = sweep.cells[i];
    if (!outcome.result.ok() || !outcome.result->has_profile) continue;
    const obs::prof::CpuProfile& p = outcome.result->profile;
    const obs::RunRecord& rec = outcome.result->ledger_record;
    std::printf("profile p=%d: %lld samples @ %.0f Hz, %.4fs CPU, "
                "top operator %s (%.4fs)\n",
                degrees[i], static_cast<long long>(p.samples), p.hz,
                p.total_cpu_s,
                rec.profile_top_operator.empty()
                    ? "(none)"
                    : rec.profile_top_operator.c_str(),
                rec.profile_top_operator_cpu_s);
  }
  for (size_t i = 0; i < sweep.cells.size(); ++i) {
    const exec::SweepCellOutcome& outcome = sweep.cells[i];
    if (!outcome.result.ok() || !outcome.result->has_mem_profile) continue;
    const obs::mem::MemProfile& m = outcome.result->mem_profile;
    const obs::RunRecord& rec = outcome.result->ledger_record;
    std::printf("memory p=%d: %lld samples, %.1f MiB allocated, peak "
                "heap %.1f MiB, top operator %s (%.1f MiB)\n",
                degrees[i], static_cast<long long>(m.samples),
                static_cast<double>(m.total_bytes) / (1024.0 * 1024.0),
                static_cast<double>(m.peak_heap_bytes) / (1024.0 * 1024.0),
                rec.mem_top_operator.empty() ? "(none)"
                                             : rec.mem_top_operator.c_str(),
                static_cast<double>(rec.mem_top_operator_bytes) /
                    (1024.0 * 1024.0));
  }
  std::printf("sweep: %zu/%zu cells ok, jobs=%d, wall %.2fs\n",
              sweep.NumOk(), sweep.cells.size(), sweep.jobs, sweep.wall_s);
  if (options.monitor.enabled && !sweep.monitor.codes.empty()) {
    std::printf("monitor: %s", Join(sweep.monitor.codes, ", ").c_str());
    if (!sweep.monitor.straggler_cells.empty()) {
      std::printf(" (stragglers: %s)",
                  Join(sweep.monitor.straggler_cells, ", ").c_str());
    }
    std::printf("\n");
  }
  if (sweep.interrupted) {
    std::fprintf(stderr,
                 "sweep: interrupted — %zu/%zu cells completed, partial "
                 "results flushed\n",
                 sweep.NumOk(), sweep.cells.size());
    return 130;
  }
  return sweep.NumOk() == sweep.cells.size() ? 0 : 1;
}

/// One simulation of the selected plan: plan, analytic estimate, measured
/// summary, optional profiles, artifacts, ledger record and stored run,
/// then the per-operator table.
int RunOnce(const Args& args, const Target& target, const Cluster& cluster,
            const RunProtocol& protocol) {
  // A stored plan re-executes as recorded; only a sweep re-degrees it.
  const int degree =
      args.Str("load").empty() ? args.Ints("parallelism").front() : 0;
  const Result<LogicalPlan> plan =
      BuildPlan(target, args.Num("rate"), degree);
  if (!plan.ok()) {
    std::fprintf(stderr, "plan: %s\n", plan.status().ToString().c_str());
    return 1;
  }

  // Static-analysis gate (loaded plans bypass PlanBuilder::Build, so the
  // check runs here for every selection path).
  if (Status check = analysis::CheckPlan(*plan, &cluster); !check.ok()) {
    if (protocol.allow_invalid) {
      std::fprintf(stderr, "warning: %s (continuing: --allow-invalid)\n",
                   check.ToString().c_str());
    } else {
      std::fprintf(stderr,
                   "%s\nrun `pdspbench analyze` for the full report, or "
                   "pass --allow-invalid to simulate anyway\n",
                   check.ToString().c_str());
      return 1;
    }
  }

  std::printf("plan:\n%s\n", plan->ToString().c_str());
  auto analytic = EstimateLatencyAnalytically(*plan, cluster);
  if (analytic.ok()) {
    std::printf("analytic estimate: %.1f ms (max utilization %.2f%s)\n\n",
                analytic->latency_s * 1e3, analytic->max_utilization,
                analytic->saturated ? ", SATURATED" : "");
  }

  ExecutionOptions exec;
  exec.placement = protocol.placement;
  exec.sim.duration_s = protocol.duration_s;
  exec.sim.warmup_s = protocol.warmup_s;
  exec.sim.seed = protocol.seed;

  // --profile / --mem-profile: register this thread and sample it across
  // the simulate phase. The samplers only read host clocks and allocation
  // sizes, so virtual-time results stay bit-identical to an unprofiled run.
  exec::RunContext context(&obs::HostProfiler::Global());
  std::unique_ptr<obs::prof::ThreadRegistration> prof_registration;
  if (protocol.profile.enabled || protocol.mem.enabled) {
    prof_registration =
        std::make_unique<obs::prof::ThreadRegistration>("main");
  }
  if (protocol.profile.enabled) {
    if (Status st = context.StartCpuProfiler(protocol.profile); !st.ok()) {
      std::fprintf(stderr, "profiler: %s\n", st.ToString().c_str());
    }
  }
  if (protocol.mem.enabled) {
    if (Status st = context.StartMemProfiler(protocol.mem); !st.ok()) {
      std::fprintf(stderr, "mem-profiler: %s\n", st.ToString().c_str());
    }
  }
  Result<SimResult> result = Status::Internal("unreachable");
  {
    obs::HostProfiler::Phase phase(context.profiler(), "simulate");
    obs::prof::ProfScope app_scope(obs::prof::FrameKind::kApp, target.name);
    obs::prof::ProfScope phase_scope(obs::prof::FrameKind::kPhase,
                                     "simulate");
    result = ExecutePlan(*plan, cluster, exec);
  }
  const obs::prof::CpuProfile profile = context.StopCpuProfiler();
  const obs::mem::MemProfile mem_profile = context.StopMemProfiler();
  if (!result.ok()) {
    std::fprintf(stderr, "run: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("measured: %s\n\n", result->Summary().c_str());
  if (!profile.empty()) {
    std::printf("cpu profile: %lld samples @ %.0f Hz, %.4fs CPU "
                "(sampler %.4fs, %lld dropped)\n",
                static_cast<long long>(profile.samples), profile.hz,
                profile.total_cpu_s, profile.sampler_cpu_s,
                static_cast<long long>(profile.dropped));
    for (const obs::prof::FrameTotal& op : profile.operators) {
      if (op.name == "(none)") continue;
      std::printf("  %-20s %9.4fs %6lld samples\n", op.name.c_str(),
                  op.cpu_s, static_cast<long long>(op.samples));
    }
    std::printf("\n");
  }
  if (!mem_profile.empty()) {
    std::printf("mem profile: %lld samples (1/%lld KiB), %.1f MiB "
                "allocated, %.1f MiB live, peak heap %.1f MiB\n",
                static_cast<long long>(mem_profile.samples),
                static_cast<long long>(
                    mem_profile.sample_interval_bytes / 1024),
                static_cast<double>(mem_profile.total_bytes) /
                    (1024.0 * 1024.0),
                static_cast<double>(mem_profile.live_bytes) /
                    (1024.0 * 1024.0),
                static_cast<double>(mem_profile.peak_heap_bytes) /
                    (1024.0 * 1024.0));
    for (const obs::mem::MemFrameTotal& op : mem_profile.operators) {
      std::printf("  %-20s %9.2f MiB %6lld samples%s\n", op.name.c_str(),
                  static_cast<double>(op.total_bytes) / (1024.0 * 1024.0),
                  static_cast<long long>(op.samples),
                  op.tuples > 0
                      ? StrFormat(" (%.1f B/tuple)", op.bytes_per_tuple)
                            .c_str()
                      : "");
    }
    std::printf("\n");
  }
  if (protocol.obs.enabled) {
    obs::ArtifactOptions bundle;
    bundle.sim_options = &exec.sim;
    bundle.cpu_profile = profile.empty() ? nullptr : &profile;
    bundle.mem_profile = mem_profile.empty() ? nullptr : &mem_profile;
    Status st = obs::WriteRunArtifacts(protocol.obs.dir, *result, bundle);
    if (st.ok()) {
      std::printf("artifacts: wrote bundle to %s/\n\n",
                  protocol.obs.dir.c_str());
    } else {
      std::fprintf(stderr, "artifacts: %s\n", st.ToString().c_str());
    }
  }
  if (protocol.ledger.enabled) {
    // Single ad-hoc run, so the "mean of repeats" collapses to one sample;
    // the record still carries full provenance (plan hash, seed, build) and
    // points at the bundle above when one was written.
    CellResult cell;
    cell.mean_median_latency_s = result->median_latency_s;
    cell.mean_throughput_tps = result->throughput_tps;
    cell.p95_latency_s = result->p95_latency_s;
    cell.p99_latency_s = result->p99_latency_s;
    cell.median_latency_stats.Add(result->median_latency_s);
    cell.throughput_stats.Add(result->throughput_tps);
    cell.late_drops = result->late_drops;
    cell.backpressure_skipped = result->backpressure_skipped;
    if (!profile.empty()) {
      cell.profile = profile;
      cell.has_profile = true;
    }
    if (!mem_profile.empty()) {
      cell.mem_profile = mem_profile;
      cell.has_mem_profile = true;
    }
    obs::RunRecord record = MakeLedgerRecord(*plan, cluster, protocol, cell);
    Status appended = obs::RunLedger(protocol.ledger.path).Append(record);
    if (appended.ok()) {
      std::printf("ledger: appended %s to %s\n\n", record.run_id.c_str(),
                  protocol.ledger.path.c_str());
    } else {
      std::fprintf(stderr, "ledger: %s\n", appended.ToString().c_str());
    }
  }
  if (const std::string& id = args.Str("save"); !id.empty()) {
    const std::string& store_dir = args.Str("store");
    Status saved = RunStore(store_dir).SaveRun(id, *plan, cluster, *result);
    if (saved.ok()) {
      std::printf("saved run '%s' to %s/\n\n", id.c_str(), store_dir.c_str());
    } else {
      std::fprintf(stderr, "save: %s\n", saved.ToString().c_str());
    }
  }
  std::printf("%-16s %-5s %-10s %-10s %-7s %-7s %-9s\n", "operator", "p",
              "in", "out", "util", "max", "late");
  for (const OperatorRunStats& op : result->op_stats) {
    std::printf("%-16s %-5d %-10lld %-10lld %-7.2f %-7.2f %-9lld\n",
                op.name.c_str(), op.parallelism,
                static_cast<long long>(op.tuples_in),
                static_cast<long long>(op.tuples_out), op.utilization,
                op.max_instance_util,
                static_cast<long long>(op.late_drops));
  }
  return 0;
}

int RunMain(const Args& args) {
  if (args.Has("list")) {
    PrintCatalog();
    return 0;
  }
  const int selectors = (args.Str("app").empty() ? 0 : 1) +
                        (args.Str("structure").empty() ? 0 : 1) +
                        (args.Str("load").empty() ? 0 : 1);
  if (selectors != 1) {
    return UsageError(args.command(),
                      "pass exactly one of --app / --structure / --load");
  }
  const bool sweep = args.Ints("parallelism").size() > 1;
  if (!sweep) {
    if (int code = RejectGiven(args, {"jobs", "progress", "progress-file"},
                               "applies only to a parallelism sweep "
                               "(--parallelism=N,M,...)")) {
      return code;
    }
  }
  if (!args.Str("load").empty()) {
    // A stored plan keeps its rates; only a sweep re-degrees it.
    if (int code = RejectGiven(args, {"rate"},
                               "does not apply to --load: the stored plan "
                               "keeps its rates")) {
      return code;
    }
    if (!sweep) {
      if (int code = RejectGiven(args, {"parallelism"},
                                 "does not apply to a single --load run, "
                                 "which re-executes the stored plan as "
                                 "recorded (a list of degrees sweeps it)")) {
        return code;
      }
    }
  }
  auto cluster = MakeCluster(args);
  if (!cluster.ok()) return Fail(cluster.status());
  auto placement = MakePlacement(args.Str("placement"));
  if (!placement.ok()) return Fail(placement.status());
  auto target = ResolveSelection(args);
  if (!target.ok()) return Fail(target.status());
  const RunProtocol protocol =
      MakeRunProtocol(args, target->name, *placement);
  if (sweep) return RunParallelismSweep(args, *target, *cluster, protocol);
  return RunOnce(args, *target, *cluster, protocol);
}

// --- the table ---------------------------------------------------------------

FlagSpec Switch(const char* name, const char* help) {
  return {name, Kind::kSwitch, "", "", help};
}
FlagSpec Text(const char* name, const char* meta, const char* def,
              const char* help) {
  return {name, Kind::kText, meta, def, help};
}

constexpr char kTargets[] = "(<abbrev>|<structure>|all)";
constexpr char kLedger[] = "results/ledger.jsonl";
constexpr FlagSpec kRate{"rate", Kind::kNumber, "N", "100000",
                         "per-source event rate (events/s)", kPositive};
constexpr FlagSpec kCluster{"cluster", Kind::kText, "NAME", "m510",
                            "m510 | c6525 | c6320 | mixed"};
constexpr FlagSpec kNodes{"nodes", Kind::kInt, "N", "10", "cluster size",
                          kAtLeastOne};
constexpr FlagSpec kAppFilter{"app", Kind::kText, "NAME", "",
                              "only labels of this app (up to the first /)"};
constexpr FlagSpec kThreshold{"threshold", Kind::kNumber, "F", "0.1",
                              "relative change that can regress",
                              kPositive};
constexpr FlagSpec kSigmas{"sigmas", Kind::kNumber, "F", "2",
                           "and sigmas of repeat noise (<=0: off)"};

FlagSpec Parallelism(const char* def) {
  return {"parallelism", Kind::kInt, "N", def, "degree of every operator",
          kAtLeastOne};
}
FlagSpec Duration(const char* def) {
  return {"duration", Kind::kNumber, "S", def, "generation horizon (s)",
          kOverHalf};
}
FlagSpec Seed(const char* def) {
  return {"seed", Kind::kUint, "N", def, "simulation seed"};
}

const std::vector<Command>& Commands() {
  static const std::vector<Command> commands = {
      {"", "(--app=<abbrev>|--structure=<name>|--load=<id>)", 0, 0,
       "Simulates one plan and prints the plan, the analytic estimate, the\n"
       "measured summary and per-operator stats; a comma list of degrees in\n"
       "--parallelism sweeps them across --jobs workers instead.",
       {Text("app", "ABBREV", "", "one of the Table 2 apps (see --list)"),
        Text("structure", "NAME", "", "a synthetic structure (see --list)"),
        Text("load", "ID", "", "re-execute the plan stored as ID in --store"),
        kRate,
        {"parallelism", Kind::kIntList, "N[,N...]", "8",
         "operator degree; a list sweeps", kAtLeastOne},
        {"jobs", Kind::kInt, "N", "1", "sweep workers (0 = all cores)",
         kNonNegative},
        kCluster, kNodes, Duration("5"), Seed("42"),
        Text("placement", "NAME", "least_loaded",
             "round_robin|least_loaded|locality|random"),
        Switch("allow-invalid", "simulate despite static-analysis errors"),
        Text("save", "ID", "", "persist plan + metrics as ID in --store"),
        Text("store", "DIR", "runs", "run store directory"),
        Text("ledger", "PATH", "", "append the run's provenance record"),
        Text("artifacts", "DIR", "", "artifact bundles (sweeps: DIR/<cell>/)"),
        {"progress", Kind::kText, "MODE", "",
         "sweep monitor: plain|rich|off|auto (bare: auto)", kAny, true},
        Text("progress-file", "PATH", "", "append monitor snapshots (JSONL)"),
        {"profile", Kind::kNumber, "HZ", "97", "sample CPU per operator",
         kPositive, true},
        {"mem-profile", Kind::kNumber, "KiB", "512",
         "sample an allocation per KiB", kPositive, true},
        Switch("list", "print the available apps and structures")},
       RunMain},
      {"analyze", kTargets, 0, 1,
       "Runs the static analysis passes over plans without simulating them;\n"
       "exit 1 on errors (with --strict also on warnings).",
       {Switch("json", "print one JSON document"),
        Switch("strict", "treat warnings as failures"),
        Switch("dataflow", "print derived partitioning, rates, determinism"),
        Switch("list-passes", "print the registered analysis passes"),
        kCluster, kNodes, Parallelism("1"), kRate},
       AnalyzeMain},
      {"diagnose", kTargets, 1, 1,
       "Simulates plans and diagnoses each run: latency breakdown, critical\n"
       "path and PDSP-R findings with fix hints; exit 1 on error findings.",
       {Parallelism("8"), kRate, kCluster, kNodes, Duration("3"), Seed("42"),
        Switch("json", "print one JSON document"),
        Switch("explain", "explain each finding against the run")},
       DiagnoseMain},
      {"history", "[<label>|all]", 0, 1,
       "Lists the newest records of the run ledger.",
       {Text("ledger", "PATH", kLedger, "run ledger"), kAppFilter,
        {"limit", Kind::kInt, "N", "20", "newest N records", kAtLeastOne},
        Switch("json", "print the full records as JSON"),
        Text("format", "FMT", "table", "table | csv (RFC 4180)")},
       HistoryMain},
      {"compare", "<baseline> <candidate>", 2, 2,
       "Compares two ledger records, each named by label, label~N (N back),\n"
       "run id or unique >=4-char run-id prefix; exit 1 on a regression.",
       {Text("ledger", "PATH", kLedger, "run ledger"), kThreshold, kSigmas,
        Switch("json", "print the comparison as JSON")},
       CompareMain},
      {"baseline", "(write|check) (<abbrev>|<structure>|all)", 2, 2,
       "write: measures targets and stores each record as DIR/<label>.json.\n"
       "check: re-measures stored baselines (all = every file in DIR) with\n"
       "their recorded protocol; exit 1 on a regression.",
       {Text("dir", "DIR", "bench/baselines", "baseline directory"),
        Text("ledger", "PATH", kLedger, "also append each record here"),
        kCluster, kNodes, Parallelism("8"), kRate,
        {"repeats", Kind::kInt, "N", "3", "repeats per target", kAtLeastOne},
        Duration("2"), Seed("2024"), kThreshold, kSigmas,
        Switch("json", "print the check results as JSON")},
       BaselineMain},
      {"report", "<ledger.jsonl|artifact-dir|record.json>", 1, 1,
       "Renders one self-contained HTML report: charts per app, a sweep\n"
       "heatmap, critical paths and, with --against, a comparison.",
       {Text("out", "PATH", "report.html", "output file"),
        Text("against", "PATH", "", "baseline ledger or record"), kAppFilter,
        {"limit", Kind::kInt, "N", "0", "newest N records per app (0 = all)",
         kNonNegative},
        Text("title", "S", "PDSP-Bench report", "report title"), kThreshold,
        kSigmas},
       ReportMain},
  };
  return commands;
}

}  // namespace

int Main(int argc, char** argv) {
  // Stored plans may reference application UDO kinds; make them resolvable
  // regardless of how the plan is selected (and so the udo-checks analysis
  // pass sees the full kind registry).
  RegisterAppUdos();
  const Command* command = &Commands().front();
  int first = 1;
  for (const Command& c : Commands()) {
    if (argc > 1 && *c.name != '\0' && std::strcmp(argv[1], c.name) == 0) {
      command = &c;
      first = 2;
    }
  }
  for (int i = first; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      std::fputs(Usage(*command).c_str(), stdout);
      return 0;
    }
  }
  Args args(*command);
  if (Status st = args.Parse(argc - first, argv + first); !st.ok()) {
    return UsageError(*command, st.message());
  }
  return command->handler(args);
}

}  // namespace pdsp

int main(int argc, char** argv) { return pdsp::Main(argc, argv); }
