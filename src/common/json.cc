#include "common/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace fglb {

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return buf;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

double JsonValue::NumberOr(const std::string& key, double fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->kind == Kind::kNumber) ? v->number : fallback;
}

std::string JsonValue::StringOr(const std::string& key,
                                const std::string& fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->kind == Kind::kString) ? v->string : fallback;
}

bool JsonValue::BoolOr(const std::string& key, bool fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->kind == Kind::kBool) ? v->boolean : fallback;
}

std::string JsonValue::Dump() const {
  switch (kind) {
    case Kind::kNull: return "null";
    case Kind::kBool: return boolean ? "true" : "false";
    case Kind::kNumber: return JsonNumber(number);
    case Kind::kString: return "\"" + JsonEscape(string) + "\"";
    case Kind::kArray: {
      std::string out = "[";
      for (size_t i = 0; i < array.size(); ++i) {
        if (i > 0) out += ',';
        out += array[i].Dump();
      }
      return out + "]";
    }
    case Kind::kObject: {
      std::string out = "{";
      bool first = true;
      for (const auto& [key, value] : object) {
        if (!first) out += ',';
        first = false;
        out += "\"" + JsonEscape(key) + "\":" + value.Dump();
      }
      return out + "}";
    }
  }
  return "null";
}

namespace {

// Recursive-descent parser over a string_view cursor.
class Parser {
 public:
  Parser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  bool Parse(JsonValue* out) {
    SkipSpace();
    if (!ParseValue(out)) return false;
    SkipSpace();
    if (pos_ != text_.size()) return Fail("trailing characters");
    return true;
  }

 private:
  bool Fail(const std::string& what) {
    if (error_ != nullptr) {
      *error_ = what + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool ParseValue(JsonValue* out) {
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out);
    if (c == '[') return ParseArray(out);
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->string);
    }
    if (Literal("true")) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      return true;
    }
    if (Literal("false")) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = false;
      return true;
    }
    if (Literal("null")) {
      out->kind = JsonValue::Kind::kNull;
      return true;
    }
    return ParseNumber(out);
  }

  bool ParseNumber(JsonValue* out) {
    const char* begin = text_.data() + pos_;
    char* end = nullptr;
    const double value = std::strtod(begin, &end);
    if (end == begin) return Fail("invalid value");
    pos_ += static_cast<size_t>(end - begin);
    out->kind = JsonValue::Kind::kNumber;
    out->number = value;
    return true;
  }

  void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool ParseString(std::string* out) {
    out->clear();
    ++pos_;  // opening quote
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        if (pos_ + 1 >= text_.size()) return Fail("bad escape");
        const char esc = text_[pos_ + 1];
        pos_ += 2;
        switch (esc) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Fail("bad \\u escape");
            uint32_t cp = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_ + static_cast<size_t>(i)];
              cp <<= 4;
              if (h >= '0' && h <= '9') cp |= static_cast<uint32_t>(h - '0');
              else if (h >= 'a' && h <= 'f')
                cp |= static_cast<uint32_t>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F')
                cp |= static_cast<uint32_t>(h - 'A' + 10);
              else
                return Fail("bad \\u escape");
            }
            pos_ += 4;
            AppendUtf8(cp, out);
            break;
          }
          default: return Fail("bad escape");
        }
        continue;
      }
      out->push_back(c);
      ++pos_;
    }
    return Fail("unterminated string");
  }

  bool ParseArray(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      JsonValue element;
      SkipSpace();
      if (!ParseValue(&element)) return false;
      out->array.push_back(std::move(element));
      SkipSpace();
      if (pos_ >= text_.size()) return Fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or ']'");
    }
  }

  bool ParseObject(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected object key");
      }
      std::string key;
      if (!ParseString(&key)) return false;
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Fail("expected ':'");
      }
      ++pos_;
      SkipSpace();
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->object.emplace(std::move(key), std::move(value));
      SkipSpace();
      if (pos_ >= text_.size()) return Fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or '}'");
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::string* error_;
};

}  // namespace

bool JsonValue::Parse(std::string_view text, JsonValue* out,
                      std::string* error) {
  JsonValue value;
  if (!Parser(text, error).Parse(&value)) return false;
  *out = std::move(value);
  return true;
}

}  // namespace fglb
