#include "src/report/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "src/common/strings.h"

namespace heterollm::report {

std::string FormatJsonNumber(double v) {
  if (std::isnan(v) || std::isinf(v)) {
    return "null";
  }
  if (v == 0) {
    return "0";  // collapses -0.0 as well
  }
  if (std::abs(v) < 9.007199254740992e15 &&
      v == static_cast<double>(static_cast<int64_t>(v))) {
    return StrFormat("%lld", static_cast<long long>(v));
  }
  // Shortest %.*g form that survives a strtod round-trip. Precision 17 is
  // always exact for IEEE doubles, so the loop terminates.
  for (int precision = 1; precision <= 17; ++precision) {
    std::string s = StrFormat("%.*g", precision, v);
    if (std::strtod(s.c_str(), nullptr) == v) {
      return s;
    }
  }
  return StrFormat("%.17g", v);
}

std::string EscapeJsonString(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

bool JsonValue::bool_value() const {
  HCHECK(is_bool());
  return bool_;
}

double JsonValue::number_value() const {
  HCHECK(is_number());
  return number_;
}

const std::string& JsonValue::string_value() const {
  HCHECK(is_string());
  return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  HCHECK(is_array());
  return array_;
}

JsonValue& JsonValue::Append(JsonValue v) {
  HCHECK(is_array());
  array_.push_back(std::move(v));
  return array_.back();
}

JsonValue& JsonValue::Set(const std::string& key, JsonValue v) {
  HCHECK(is_object());
  for (auto& [k, existing] : object_) {
    if (k == key) {
      existing = std::move(v);
      return existing;
    }
  }
  object_.emplace_back(key, std::move(v));
  return object_.back().second;
}

const JsonValue& JsonValue::Get(const std::string& key) const {
  HCHECK(is_object());
  for (const auto& [k, v] : object_) {
    if (k == key) {
      return v;
    }
  }
  static const JsonValue kNull;
  return kNull;
}

bool JsonValue::Has(const std::string& key) const {
  HCHECK(is_object());
  for (const auto& [k, v] : object_) {
    if (k == key) {
      return true;
    }
  }
  return false;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  HCHECK(is_object());
  return object_;
}

double JsonValue::GetNumber(const std::string& key, double fallback) const {
  const JsonValue& v = Get(key);
  return v.is_number() ? v.number_ : fallback;
}

std::string JsonValue::GetString(const std::string& key,
                                 const std::string& fallback) const {
  const JsonValue& v = Get(key);
  return v.is_string() ? v.string_ : fallback;
}

bool JsonValue::GetBool(const std::string& key, bool fallback) const {
  const JsonValue& v = Get(key);
  return v.is_bool() ? v.bool_ : fallback;
}

namespace {

bool IsScalar(const JsonValue& v) {
  return !v.is_array() && !v.is_object();
}

bool AllScalar(const std::vector<JsonValue>& items) {
  for (const JsonValue& v : items) {
    if (!IsScalar(v)) {
      return false;
    }
  }
  return true;
}

}  // namespace

void JsonValue::DumpTo(std::string* out, int indent, int depth) const {
  const std::string pad =
      indent > 0 ? std::string(static_cast<size_t>(indent) * (depth + 1), ' ')
                 : std::string();
  const std::string close_pad =
      indent > 0 ? std::string(static_cast<size_t>(indent) * depth, ' ')
                 : std::string();
  const char* nl = indent > 0 ? "\n" : "";
  const char* colon = indent > 0 ? ": " : ":";
  switch (kind_) {
    case Kind::kNull:
      *out += "null";
      return;
    case Kind::kBool:
      *out += bool_ ? "true" : "false";
      return;
    case Kind::kNumber:
      *out += FormatJsonNumber(number_);
      return;
    case Kind::kString:
      *out += '"' + EscapeJsonString(string_) + '"';
      return;
    case Kind::kArray: {
      if (array_.empty()) {
        *out += "[]";
        return;
      }
      // Scalar-only arrays stay on one line even when pretty-printing.
      const bool inline_items = indent == 0 || AllScalar(array_);
      *out += '[';
      for (size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) {
          *out += ',';
          if (inline_items && indent > 0) {
            *out += ' ';
          }
        }
        if (!inline_items) {
          *out += nl;
          *out += pad;
        }
        array_[i].DumpTo(out, inline_items ? 0 : indent, depth + 1);
      }
      if (!inline_items) {
        *out += nl;
        *out += close_pad;
      }
      *out += ']';
      return;
    }
    case Kind::kObject: {
      if (object_.empty()) {
        *out += "{}";
        return;
      }
      *out += '{';
      for (size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) {
          *out += ',';
        }
        *out += nl;
        *out += pad;
        *out += '"' + EscapeJsonString(object_[i].first) + '"' + colon;
        object_[i].second.DumpTo(out, indent, depth + 1);
      }
      *out += nl;
      *out += close_pad;
      *out += '}';
      return;
    }
  }
}

std::string JsonValue::Dump(int indent) const {
  std::string out;
  DumpTo(&out, indent, 0);
  if (indent > 0) {
    out += '\n';
  }
  return out;
}

bool JsonValue::operator==(const JsonValue& other) const {
  if (kind_ != other.kind_) {
    return false;
  }
  switch (kind_) {
    case Kind::kNull:
      return true;
    case Kind::kBool:
      return bool_ == other.bool_;
    case Kind::kNumber:
      return number_ == other.number_;
    case Kind::kString:
      return string_ == other.string_;
    case Kind::kArray:
      return array_ == other.array_;
    case Kind::kObject:
      return object_ == other.object_;
  }
  return false;
}

namespace {

// Recursive-descent parser over a string view with a position cursor.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  StatusOr<JsonValue> ParseDocument() {
    StatusOr<JsonValue> value = ParseValue();
    if (!value.ok()) {
      return value;
    }
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON value");
    }
    return value;
  }

 private:
  Status Error(const std::string& what) const {
    return InvalidArgumentError(
        StrFormat("JSON parse error at offset %zu: %s", pos_, what.c_str()));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(const char* lit) {
    const size_t len = std::string(lit).size();
    if (text_.compare(pos_, len, lit) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  StatusOr<JsonValue> ParseValue() {
    if (++depth_ > kMaxDepth) {
      return Error("nesting too deep");
    }
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      return Error("unexpected end of input");
    }
    StatusOr<JsonValue> result = ParseValueInner();
    --depth_;
    return result;
  }

  StatusOr<JsonValue> ParseValueInner() {
    const char c = text_[pos_];
    if (c == '{') {
      return ParseObject();
    }
    if (c == '[') {
      return ParseArray();
    }
    if (c == '"') {
      StatusOr<std::string> s = ParseString();
      if (!s.ok()) {
        return s.status();
      }
      return JsonValue(*std::move(s));
    }
    if (ConsumeLiteral("null")) {
      return JsonValue();
    }
    if (ConsumeLiteral("true")) {
      return JsonValue(true);
    }
    if (ConsumeLiteral("false")) {
      return JsonValue(false);
    }
    return ParseNumber();
  }

  StatusOr<JsonValue> ParseNumber() {
    const size_t start = pos_;
    Consume('-');
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      return Error("invalid value");
    }
    const std::string token = text_.substr(start, pos_ - start);
    // JSON forbids leading zeros ("01") even though strtod accepts them.
    const size_t digits = token[0] == '-' ? 1 : 0;
    if (token.size() > digits + 1 && token[digits] == '0' &&
        std::isdigit(static_cast<unsigned char>(token[digits + 1]))) {
      return Error("invalid number '" + token + "'");
    }
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || std::isinf(v) ||
        std::isnan(v)) {
      return Error("invalid number '" + token + "'");
    }
    return JsonValue(v);
  }

  StatusOr<std::string> ParseString() {
    if (!Consume('"')) {
      return Error("expected '\"'");
    }
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Error("truncated \\u escape");
          }
          const std::string hex = text_.substr(pos_, 4);
          char* end = nullptr;
          const long code = std::strtol(hex.c_str(), &end, 16);
          if (end != hex.c_str() + 4) {
            return Error("invalid \\u escape '" + hex + "'");
          }
          pos_ += 4;
          // UTF-8 encode the BMP code point (surrogate pairs are not
          // produced by our writer; lone surrogates encode as-is).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          return Error(StrFormat("invalid escape '\\%c'", esc));
      }
    }
    return Error("unterminated string");
  }

  StatusOr<JsonValue> ParseArray() {
    Consume('[');
    JsonValue arr = JsonValue::Array();
    SkipWhitespace();
    if (Consume(']')) {
      return arr;
    }
    while (true) {
      StatusOr<JsonValue> v = ParseValue();
      if (!v.ok()) {
        return v;
      }
      arr.Append(*std::move(v));
      SkipWhitespace();
      if (Consume(']')) {
        return arr;
      }
      if (!Consume(',')) {
        return Error("expected ',' or ']' in array");
      }
    }
  }

  StatusOr<JsonValue> ParseObject() {
    Consume('{');
    JsonValue obj = JsonValue::Object();
    SkipWhitespace();
    if (Consume('}')) {
      return obj;
    }
    while (true) {
      SkipWhitespace();
      StatusOr<std::string> key = ParseString();
      if (!key.ok()) {
        return key.status();
      }
      SkipWhitespace();
      if (!Consume(':')) {
        return Error("expected ':' after object key");
      }
      StatusOr<JsonValue> v = ParseValue();
      if (!v.ok()) {
        return v;
      }
      obj.Set(*key, *std::move(v));
      SkipWhitespace();
      if (Consume('}')) {
        return obj;
      }
      if (!Consume(',')) {
        return Error("expected ',' or '}' in object");
      }
    }
  }

  static constexpr int kMaxDepth = 64;

  const std::string& text_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

StatusOr<JsonValue> ParseJson(const std::string& text) {
  return Parser(text).ParseDocument();
}

}  // namespace heterollm::report
