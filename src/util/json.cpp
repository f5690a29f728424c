#include "util/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace ss::util {

struct JsonValue::Parser {
  std::string_view s;
  std::size_t i = 0;
  // Hard nesting bound: the documents we read are a handful of levels
  // deep; a bound turns stack-smashing inputs into a parse error.
  int depth = 0;
  static constexpr int kMaxDepth = 64;

  void skip_ws() {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' ||
                            s[i] == '\r')) {
      ++i;
    }
  }

  bool eat(char c) {
    skip_ws();
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    return false;
  }

  bool literal(std::string_view lit) {
    if (s.substr(i, lit.size()) != lit) return false;
    i += lit.size();
    return true;
  }

  bool parse_string(std::string& out) {
    if (i >= s.size() || s[i] != '"') return false;
    ++i;
    out.clear();
    while (i < s.size()) {
      const char c = s[i++];
      if (c == '"') return true;
      if (c == '\\') {
        if (i >= s.size()) return false;
        const char e = s[i++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            // \uXXXX: decode the code unit to UTF-8 (no surrogate-pair
            // handling — our producers never emit non-BMP escapes).
            if (i + 4 > s.size()) return false;
            unsigned cp = 0;
            for (int k = 0; k < 4; ++k) {
              const char h = s[i++];
              cp <<= 4;
              if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
              else return false;
            }
            if (cp < 0x80) {
              out.push_back(static_cast<char>(cp));
            } else if (cp < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
              out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
              out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
            }
            break;
          }
          default: return false;
        }
      } else {
        out.push_back(c);
      }
    }
    return false;  // unterminated
  }

  bool parse_value(JsonValue& out) {
    if (++depth > kMaxDepth) return false;
    skip_ws();
    if (i >= s.size()) return false;
    bool ok = false;
    const char c = s[i];
    if (c == '{') {
      ++i;
      out.type_ = Type::kObject;
      skip_ws();
      if (eat('}')) {
        ok = true;
      } else {
        for (;;) {
          skip_ws();
          std::string key;
          if (!parse_string(key)) break;
          if (!eat(':')) break;
          JsonValue v;
          if (!parse_value(v)) break;
          out.obj_.emplace_back(std::move(key), std::move(v));
          if (eat(',')) continue;
          ok = eat('}');
          break;
        }
      }
    } else if (c == '[') {
      ++i;
      out.type_ = Type::kArray;
      skip_ws();
      if (eat(']')) {
        ok = true;
      } else {
        for (;;) {
          JsonValue v;
          if (!parse_value(v)) break;
          out.arr_.push_back(std::move(v));
          if (eat(',')) continue;
          ok = eat(']');
          break;
        }
      }
    } else if (c == '"') {
      out.type_ = Type::kString;
      ok = parse_string(out.str_);
    } else if (c == 't') {
      out.type_ = Type::kBool;
      out.num_ = 1.0;
      ok = literal("true");
    } else if (c == 'f') {
      out.type_ = Type::kBool;
      out.num_ = 0.0;
      ok = literal("false");
    } else if (c == 'n') {
      out.type_ = Type::kNull;
      ok = literal("null");
    } else if (c == '-' || (c >= '0' && c <= '9')) {
      const char* start = s.data() + i;
      char* end = nullptr;
      out.type_ = Type::kNumber;
      out.num_ = std::strtod(start, &end);
      ok = end != start && std::isfinite(out.num_);
      i += static_cast<std::size_t>(end - start);
    }
    --depth;
    return ok;
  }
};

std::optional<JsonValue> JsonValue::parse(std::string_view text) {
  Parser p{text};
  JsonValue v;
  if (!p.parse_value(v)) return std::nullopt;
  p.skip_ws();
  if (p.i != text.size()) return std::nullopt;  // trailing garbage
  return v;
}

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  if (type_ != Type::kObject) return nullptr;
  for (const Member& m : obj_) {
    if (m.first == key) return &m.second;
  }
  return nullptr;
}

std::string JsonValue::str_at(std::string_view key, std::string dflt) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->is_string() ? v->str_ : std::move(dflt);
}

std::optional<JsonValue> parse_json_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return JsonValue::parse(buf.str());
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

void append_double(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  out += buf;
}

void json_escape_into(std::string& out, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
}

}  // namespace ss::util
