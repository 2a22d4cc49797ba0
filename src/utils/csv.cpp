#include "utils/csv.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "utils/error.hpp"

namespace fca {
namespace {

bool needs_quoting(const std::string& s) {
  return s.find_first_of(",\"\n") != std::string::npos;
}

std::string quote(const std::string& s) {
  if (!needs_quoting(s)) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

CsvWriter::CsvWriter(const std::string& path,
                     const std::vector<std::string>& header)
    : path_(path), out_(path), arity_(header.size()) {
  FCA_CHECK_MSG(out_.good(), "cannot open CSV file " << path);
  FCA_CHECK(!header.empty());
  write_row(header);
}

void CsvWriter::write_row(const std::vector<std::string>& values) {
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out_ << ',';
    out_ << quote(values[i]);
  }
  out_ << '\n';
}

void CsvWriter::row(const std::vector<std::string>& values) {
  FCA_CHECK_MSG(values.size() == arity_,
                "CSV row arity " << values.size() << " != header " << arity_);
  write_row(values);
  out_.flush();
}

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {
  FCA_CHECK(!header_.empty());
}

void TextTable::row(std::vector<std::string> values) {
  FCA_CHECK(values.size() == header_.size());
  rows_.push_back(std::move(values));
}

std::string TextTable::render() const {
  std::vector<size_t> width(header_.size());
  for (size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& r : rows_) {
    for (size_t c = 0; c < r.size(); ++c) {
      width[c] = std::max(width[c], r[c].size());
    }
  }
  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& r) {
    os << "| ";
    for (size_t c = 0; c < r.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(width[c])) << r[c];
      os << (c + 1 < r.size() ? " | " : " |\n");
    }
  };
  emit(header_);
  os << '|';
  for (size_t c = 0; c < header_.size(); ++c) {
    os << std::string(width[c] + 2, '-') << '|';
  }
  os << '\n';
  for (const auto& r : rows_) emit(r);
  return os.str();
}

std::string format_mean_std(double mean, double stddev) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(4) << mean << " ± " << stddev;
  return os.str();
}

std::string format_fixed(double v, int decimals) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(decimals) << v;
  return os.str();
}

}  // namespace fca
