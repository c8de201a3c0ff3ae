#include "src/common/file_util.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "tests/testing/temp_dir.h"

namespace pdsp {
namespace {

class FileUtilTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TestTempDir() + "/files";
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_F(FileUtilTest, WriteAtomicCreatesParentsAndRoundTrips) {
  const std::string path = dir_ + "/a/b/c.txt";
  ASSERT_TRUE(WriteTextFileAtomic(path, "hello\n").ok());
  auto text = ReadTextFile(path);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, "hello\n");
  // No .tmp sibling left behind.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST_F(FileUtilTest, WriteAtomicReplacesExistingContent) {
  const std::string path = dir_ + "/f.txt";
  ASSERT_TRUE(WriteTextFileAtomic(path, "first").ok());
  ASSERT_TRUE(WriteTextFileAtomic(path, "second").ok());
  auto text = ReadTextFile(path);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, "second");
}

TEST_F(FileUtilTest, ReadMissingFileIsNotFound) {
  auto text = ReadTextFile(dir_ + "/absent.txt");
  ASSERT_FALSE(text.ok());
  EXPECT_EQ(text.status().code(), StatusCode::kNotFound);
}

TEST_F(FileUtilTest, AppendLineCreatesFileAndAddsNewline) {
  const std::string path = dir_ + "/log/x.jsonl";
  ASSERT_TRUE(AppendLineAtomic(path, "one").ok());
  ASSERT_TRUE(AppendLineAtomic(path, "two\n").ok());
  auto text = ReadTextFile(path);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, "one\ntwo\n");
}

}  // namespace
}  // namespace pdsp
