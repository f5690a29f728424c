#include "util/ascii_chart.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace ss {

AsciiChart::AsciiChart(std::string title, std::string x_label,
                       std::string y_label, std::size_t width,
                       std::size_t height)
    : title_(std::move(title)),
      x_label_(std::move(x_label)),
      y_label_(std::move(y_label)),
      width_(width),
      height_(height) {}

void AsciiChart::set_y_range(double lo, double hi) {
  y_lo_ = lo;
  y_hi_ = hi;
  have_y_range_ = true;
}

std::string AsciiChart::render() const {
  double xlo = std::numeric_limits<double>::infinity(), xhi = -xlo;
  double ylo = xlo, yhi = -xlo;
  for (const auto& s : series_) {
    for (double v : s.x) {
      xlo = std::min(xlo, v);
      xhi = std::max(xhi, v);
    }
    for (double v : s.y) {
      ylo = std::min(ylo, v);
      yhi = std::max(yhi, v);
    }
  }
  if (have_y_range_) {
    ylo = y_lo_;
    yhi = y_hi_;
  }
  if (!(xhi > xlo)) xhi = xlo + 1;
  if (!(yhi > ylo)) yhi = ylo + 1;

  auto tx = [&](double x) {
    if (log_x_ && x > 0 && xlo > 0) {
      return (std::log10(x) - std::log10(xlo)) /
             (std::log10(xhi) - std::log10(xlo));
    }
    return (x - xlo) / (xhi - xlo);
  };

  // Canvas rows are top-to-bottom; column 0 is the y-axis.
  std::vector<std::string> canvas(height_, std::string(width_, ' '));
  for (const auto& s : series_) {
    const std::size_t n = std::min(s.x.size(), s.y.size());
    for (std::size_t i = 0; i < n; ++i) {
      const double fx = tx(s.x[i]);
      const double fy = (s.y[i] - ylo) / (yhi - ylo);
      if (fx < 0 || fx > 1 || fy < 0 || fy > 1) continue;
      const auto col = static_cast<std::size_t>(
          fx * static_cast<double>(width_ - 1) + 0.5);
      const auto row_from_bottom = static_cast<std::size_t>(
          fy * static_cast<double>(height_ - 1) + 0.5);
      canvas[height_ - 1 - row_from_bottom][col] = s.glyph;
    }
  }

  std::string out;
  out += "  " + title_ + "\n";
  char buf[64];
  for (std::size_t r = 0; r < height_; ++r) {
    if (r == 0) {
      std::snprintf(buf, sizeof buf, "%10.4g |", yhi);
    } else if (r == height_ - 1) {
      std::snprintf(buf, sizeof buf, "%10.4g |", ylo);
    } else if (r == height_ / 2) {
      std::snprintf(buf, sizeof buf, "%10.4g |", (ylo + yhi) / 2);
    } else {
      std::snprintf(buf, sizeof buf, "%10s |", "");
    }
    out += buf;
    out += canvas[r];
    out.push_back('\n');
  }
  out += std::string(11, ' ') + '+' + std::string(width_, '-') + '\n';
  std::snprintf(buf, sizeof buf, "%10.4g", xlo);
  out += std::string(8, ' ') + buf;
  std::snprintf(buf, sizeof buf, "%.4g", xhi);
  const std::string right = buf;
  const std::string mid = x_label_ + (log_x_ ? " (log)" : "");
  std::size_t pad =
      width_ > mid.size() + right.size() ? (width_ - mid.size()) / 2 : 1;
  out += std::string(pad, ' ') + mid;
  out += std::string(
      width_ + 11 > out.size() - out.rfind('\n') + right.size()
          ? width_ + 11 - (out.size() - out.rfind('\n') - 1) - right.size()
          : 1,
      ' ');
  out += right + "\n";
  out += "  y: " + y_label_ + "   series:";
  for (const auto& s : series_) {
    out += "  ";
    out.push_back(s.glyph);
    out += "=" + s.name;
  }
  out.push_back('\n');
  return out;
}

}  // namespace ss
