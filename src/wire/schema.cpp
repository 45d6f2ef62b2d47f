#include "wire/schema.h"

#include <algorithm>
#include <cctype>
#include <limits>
#include <unordered_map>
#include <unordered_set>

namespace turret::wire {

std::string_view field_type_name(FieldType t) {
  switch (t) {
    case FieldType::kBool: return "bool";
    case FieldType::kI8: return "i8";
    case FieldType::kI16: return "i16";
    case FieldType::kI32: return "i32";
    case FieldType::kI64: return "i64";
    case FieldType::kU8: return "u8";
    case FieldType::kU16: return "u16";
    case FieldType::kU32: return "u32";
    case FieldType::kU64: return "u64";
    case FieldType::kF32: return "f32";
    case FieldType::kF64: return "f64";
    case FieldType::kBytes: return "bytes";
  }
  return "?";
}

std::optional<FieldType> field_type_from_name(std::string_view name) {
  static const std::unordered_map<std::string_view, FieldType> kMap = {
      {"bool", FieldType::kBool}, {"i8", FieldType::kI8},
      {"i16", FieldType::kI16},   {"i32", FieldType::kI32},
      {"i64", FieldType::kI64},   {"u8", FieldType::kU8},
      {"u16", FieldType::kU16},   {"u32", FieldType::kU32},
      {"u64", FieldType::kU64},   {"f32", FieldType::kF32},
      {"f64", FieldType::kF64},   {"bytes", FieldType::kBytes},
  };
  auto it = kMap.find(name);
  if (it == kMap.end()) return std::nullopt;
  return it->second;
}

bool is_integer(FieldType t) {
  return is_signed_integer(t) || is_unsigned_integer(t);
}

bool is_signed_integer(FieldType t) {
  switch (t) {
    case FieldType::kI8:
    case FieldType::kI16:
    case FieldType::kI32:
    case FieldType::kI64:
      return true;
    default:
      return false;
  }
}

bool is_unsigned_integer(FieldType t) {
  switch (t) {
    case FieldType::kU8:
    case FieldType::kU16:
    case FieldType::kU32:
    case FieldType::kU64:
      return true;
    default:
      return false;
  }
}

bool is_float(FieldType t) {
  return t == FieldType::kF32 || t == FieldType::kF64;
}

std::int64_t integer_min(FieldType t) {
  switch (t) {
    case FieldType::kI8: return std::numeric_limits<std::int8_t>::min();
    case FieldType::kI16: return std::numeric_limits<std::int16_t>::min();
    case FieldType::kI32: return std::numeric_limits<std::int32_t>::min();
    case FieldType::kI64: return std::numeric_limits<std::int64_t>::min();
    default: return 0;  // unsigned types
  }
}

std::uint64_t integer_max(FieldType t) {
  switch (t) {
    case FieldType::kI8: return std::numeric_limits<std::int8_t>::max();
    case FieldType::kI16: return std::numeric_limits<std::int16_t>::max();
    case FieldType::kI32: return std::numeric_limits<std::int32_t>::max();
    case FieldType::kI64: return std::numeric_limits<std::int64_t>::max();
    case FieldType::kU8: return std::numeric_limits<std::uint8_t>::max();
    case FieldType::kU16: return std::numeric_limits<std::uint16_t>::max();
    case FieldType::kU32: return std::numeric_limits<std::uint32_t>::max();
    case FieldType::kU64: return std::numeric_limits<std::uint64_t>::max();
    default: return 0;
  }
}

bool MessageSpec::has_signed_fields() const {
  for (const auto& f : fields) {
    if (f.is_signed) return true;
  }
  return false;
}

std::optional<std::size_t> MessageSpec::field_index(
    std::string_view field_name) const {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (fields[i].name == field_name) return i;
  }
  return std::nullopt;
}

Schema::Schema(std::string protocol_name, std::vector<MessageSpec> messages)
    : protocol_(std::move(protocol_name)), messages_(std::move(messages)) {}

const MessageSpec* Schema::by_tag(TypeTag tag) const {
  for (const auto& m : messages_) {
    if (m.tag == tag) return &m;
  }
  return nullptr;
}

const MessageSpec* Schema::by_name(std::string_view name) const {
  for (const auto& m : messages_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

namespace {

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

enum class TokKind { kIdent, kNumber, kSymbol, kEnd };

struct Token {
  TokKind kind;
  std::string text;
  int line;
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  Token next() {
    skip_ws_and_comments();
    if (pos_ >= text_.size()) return {TokKind::kEnd, "", line_};
    const char c = text_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t start = pos_;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '_'))
        ++pos_;
      return {TokKind::kIdent, std::string(text_.substr(start, pos_ - start)),
              line_};
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t start = pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
      return {TokKind::kNumber, std::string(text_.substr(start, pos_ - start)),
              line_};
    }
    ++pos_;
    return {TokKind::kSymbol, std::string(1, c), line_};
  }

 private:
  void skip_ws_and_comments() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '#') {
        skip_line();
      } else if (c == '/' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '/') {
        skip_line();
      } else {
        break;
      }
    }
  }

  void skip_line() {
    while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int line_ = 1;
};

[[noreturn]] void fail(int line, const std::string& msg) {
  throw WireError("line " + std::to_string(line) + ": " + msg);
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

class Parser {
 public:
  explicit Parser(std::string_view text) : lex_(text) { advance(); }

  Schema parse() {
    expect_ident("protocol");
    const Token name = expect(TokKind::kIdent, "protocol name");
    expect_symbol(";");

    std::vector<MessageSpec> messages;
    std::unordered_set<std::string> names;
    std::unordered_set<TypeTag> tags;
    while (cur_.kind != TokKind::kEnd) {
      MessageSpec m = parse_message();
      if (!names.insert(m.name).second)
        fail(cur_.line, "duplicate message name '" + m.name + "'");
      if (!tags.insert(m.tag).second)
        fail(cur_.line, "duplicate message tag " + std::to_string(m.tag));
      messages.push_back(std::move(m));
    }
    if (messages.empty()) fail(cur_.line, "schema declares no messages");
    return Schema(name.text, std::move(messages));
  }

 private:
  MessageSpec parse_message() {
    expect_ident("message");
    MessageSpec m;
    m.name = expect(TokKind::kIdent, "message name").text;
    expect_symbol("=");
    const Token tag = expect(TokKind::kNumber, "message tag");
    const unsigned long v = std::stoul(tag.text);
    if (v > 0xffff) fail(tag.line, "message tag exceeds u16 range");
    m.tag = static_cast<TypeTag>(v);
    expect_symbol("{");
    std::unordered_set<std::string> field_names;
    while (!accept_symbol("}")) {
      Token type_tok = expect(TokKind::kIdent, "field type");
      bool field_signed = false;
      if (type_tok.text == "signed") {
        field_signed = true;
        type_tok = expect(TokKind::kIdent, "field type");
      }
      const auto type = field_type_from_name(type_tok.text);
      if (!type) fail(type_tok.line, "unknown field type '" + type_tok.text + "'");
      const Token fname = expect(TokKind::kIdent, "field name");
      expect_symbol(";");
      if (!field_names.insert(fname.text).second)
        fail(fname.line, "duplicate field '" + fname.text + "' in message '" +
                             m.name + "'");
      m.fields.push_back({fname.text, *type, field_signed});
    }
    return m;
  }

  void advance() { cur_ = lex_.next(); }

  Token expect(TokKind kind, const char* what) {
    if (cur_.kind != kind)
      fail(cur_.line, std::string("expected ") + what + ", got '" + cur_.text + "'");
    Token t = cur_;
    advance();
    return t;
  }

  void expect_ident(const char* word) {
    if (cur_.kind != TokKind::kIdent || cur_.text != word)
      fail(cur_.line, std::string("expected '") + word + "', got '" + cur_.text + "'");
    advance();
  }

  void expect_symbol(const char* sym) {
    if (cur_.kind != TokKind::kSymbol || cur_.text != sym)
      fail(cur_.line, std::string("expected '") + sym + "', got '" + cur_.text + "'");
    advance();
  }

  bool accept_symbol(const char* sym) {
    if (cur_.kind == TokKind::kSymbol && cur_.text == sym) {
      advance();
      return true;
    }
    if (cur_.kind == TokKind::kEnd) fail(cur_.line, "unexpected end of input");
    return false;
  }

  Lexer lex_;
  Token cur_{TokKind::kEnd, "", 0};
};

}  // namespace

Schema parse_schema(std::string_view text) {
  return Parser(text).parse();
}

}  // namespace turret::wire
