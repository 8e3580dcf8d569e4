#include "json.h"

#include <cstdlib>

namespace perfbench {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Json> Document() {
    Json value;
    if (!Value(value)) return std::nullopt;
    SkipSpace();
    if (pos_ != text_.size()) return std::nullopt;
    return value;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool String(std::string& out) {
    if (!Consume('"')) return false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return false;
      const char escape = text_[pos_++];
      switch (escape) {
        case '"':
        case '\\':
        case '/':
          out += escape;
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          // The engine only escapes control characters this way; keep
          // the code unit if it fits one byte, else a placeholder.
          if (pos_ + 4 > text_.size()) return false;
          const std::string hex(text_.substr(pos_, 4));
          pos_ += 4;
          char* end = nullptr;
          const long unit = std::strtol(hex.c_str(), &end, 16);
          if (end != hex.c_str() + 4) return false;
          out += unit < 0x80 ? static_cast<char>(unit) : '?';
          break;
        }
        default:
          return false;
      }
    }
    return false;
  }

  bool Value(Json& out) {
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out.type = Json::Type::kObject;
      if (Consume('}')) return true;
      do {
        std::string key;
        Json member;
        if (!String(key) || !Consume(':') || !Value(member)) return false;
        out.fields.emplace_back(std::move(key), std::move(member));
      } while (Consume(','));
      return Consume('}');
    }
    if (c == '[') {
      ++pos_;
      out.type = Json::Type::kArray;
      if (Consume(']')) return true;
      do {
        Json item;
        if (!Value(item)) return false;
        out.items.push_back(std::move(item));
      } while (Consume(','));
      return Consume(']');
    }
    if (c == '"') {
      out.type = Json::Type::kString;
      return String(out.text);
    }
    if (Literal("true")) {
      out.type = Json::Type::kBool;
      out.boolean = true;
      return true;
    }
    if (Literal("false")) {
      out.type = Json::Type::kBool;
      return true;
    }
    if (Literal("null")) return true;
    const std::string rest(text_.substr(pos_, 40));
    char* end = nullptr;
    out.number = std::strtod(rest.c_str(), &end);
    if (end == rest.c_str()) return false;
    out.type = Json::Type::kNumber;
    pos_ += static_cast<size_t>(end - rest.c_str());
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

const Json* Json::Find(std::string_view key) const {
  for (const auto& [name, value] : fields) {
    if (name == key) return &value;
  }
  return nullptr;
}

double Json::Number(std::string_view key, double fallback) const {
  const Json* value = Find(key);
  return value != nullptr && value->type == Type::kNumber ? value->number
                                                          : fallback;
}

bool Json::Bool(std::string_view key) const {
  const Json* value = Find(key);
  return value != nullptr && value->type == Type::kBool && value->boolean;
}

std::optional<Json> ParseJson(std::string_view text) {
  return Parser(text).Document();
}

}  // namespace perfbench
