// ascii_chart.hpp — terminal rendering of the reproduced figures.
//
// Each figure bench prints the paper's figure as an ASCII chart so the
// reproduction can be eyeballed straight from `bench_output.txt`, in
// addition to the CSV it writes.  Supports multiple overlaid series with
// distinct glyphs and an auto-scaled y-axis.
#pragma once

#include <string>
#include <vector>

namespace ss {

struct Series {
  std::string name;
  std::vector<double> x;
  std::vector<double> y;
  char glyph = '*';
};

class AsciiChart {
 public:
  AsciiChart(std::string title, std::string x_label, std::string y_label,
             std::size_t width = 72, std::size_t height = 20);

  void add(Series s) { series_.push_back(std::move(s)); }

  /// Force the y-axis range (otherwise auto-fit to the data, as the x
  /// axis always is).
  void set_y_range(double lo, double hi);

  /// Plot points on a log10 x axis (for stream-count sweeps 4..256).
  void set_log_x(bool v) { log_x_ = v; }

  [[nodiscard]] std::string render() const;

 private:
  std::string title_, x_label_, y_label_;
  std::size_t width_, height_;
  std::vector<Series> series_;
  bool have_y_range_ = false, log_x_ = false;
  double y_lo_ = 0, y_hi_ = 0;
};

}  // namespace ss
