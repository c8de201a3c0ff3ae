// Per-test scratch directories.
//
// ctest runs every gtest case as its own process and `ctest -j` runs those
// processes concurrently, so a fixed path under ::testing::TempDir() is
// shared between cases: one case's cleanup can delete another's files
// mid-write. TestTempDir() gives each test case a directory of its own.

#ifndef PDSP_TESTS_TESTING_TEMP_DIR_H_
#define PDSP_TESTS_TESTING_TEMP_DIR_H_

#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <string>

namespace pdsp {
namespace testing {

/// Returns <TempDir>/pdsp_<Suite>.<Test> for the running test case,
/// creating it if needed. Contents left by an earlier run of the same case
/// are not removed; callers clear what they reuse, as before.
inline std::string TestTempDir() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = "pdsp_";
  if (info != nullptr) {
    name += std::string(info->test_suite_name()) + "." + info->name();
  }
  // Parameterized names carry '/' and other path-hostile characters.
  for (char& c : name) {
    const auto u = static_cast<unsigned char>(c);
    if (!std::isalnum(u) && c != '.' && c != '_' && c != '-') c = '_';
  }
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / name).string();
  std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace testing
}  // namespace pdsp

#endif  // PDSP_TESTS_TESTING_TEMP_DIR_H_
