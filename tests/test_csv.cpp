#include "utils/csv.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "utils/error.hpp"

namespace fca {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

class CsvTest : public ::testing::Test {
 protected:
  std::string path_ = ::testing::TempDir() + "/fca_csv_test.csv";
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(CsvTest, WritesHeaderAndRows) {
  {
    CsvWriter w(path_, {"round", "acc"});
    w.row(std::vector<std::string>{"1", "0.5"});
  }
  const std::string content = read_file(path_);
  EXPECT_NE(content.find("round,acc\n"), std::string::npos);
  EXPECT_NE(content.find("1,0.5\n"), std::string::npos);
}

TEST_F(CsvTest, QuotesSpecialCharacters) {
  {
    CsvWriter w(path_, {"name"});
    w.row(std::vector<std::string>{"a,b"});
    w.row(std::vector<std::string>{"say \"hi\""});
  }
  const std::string content = read_file(path_);
  EXPECT_NE(content.find("\"a,b\""), std::string::npos);
  EXPECT_NE(content.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST_F(CsvTest, RejectsWrongArity) {
  CsvWriter w(path_, {"a", "b"});
  EXPECT_THROW(w.row(std::vector<std::string>{"only-one"}), Error);
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"method", "accuracy"});
  t.row({"FedClassAvg", "0.9303"});
  t.row({"KT-pFL", "0.9039"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| method      | accuracy |"), std::string::npos);
  EXPECT_NE(out.find("FedClassAvg"), std::string::npos);
  EXPECT_NE(out.find("KT-pFL"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("|--"), std::string::npos);
}

TEST(TextTable, RejectsArityMismatch) {
  TextTable t({"a"});
  EXPECT_THROW(t.row({"x", "y"}), Error);
}

TEST(Format, MeanStd) {
  EXPECT_EQ(format_mean_std(0.76699, 0.05321), "0.7670 ± 0.0532");
}

TEST(Format, Fixed) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(2.0, 0), "2");
}

}  // namespace
}  // namespace fca
