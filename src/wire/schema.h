// Message-format schema: the user-facing description of a system's external
// API that Turret requires (paper §III-D, §IV-B).
//
// The paper's authors wrote "a small compiler that reads a message format
// description and generates C++ code compatible with a large set of binary
// wire protocols"; the generated code identifies message types and modifies
// fields inside the malicious proxy. This module is that compiler:
//
//   * parse_schema() turns the `.msg` DSL into a Schema the proxy interprets
//     at run time (type identification + typed field mutation), and
//   * generate_cpp() (codegen.h) emits the C++ structs/codecs the paper's
//     version would have produced, for users who want compiled accessors.
//
// Wire format described by a schema: every message starts with a u16 type
// tag, followed by the fields in declaration order; integer/float scalars are
// little-endian, `bytes` fields are a u32 length followed by that many bytes.
//
// DSL example:
//
//   protocol pbft;
//
//   message PrePrepare = 1 {
//     u32   view;
//     u64   seq;
//     bytes digest;
//     u32   n_big_requests;
//   }
//
// A field may carry the `signed` modifier before its type:
//
//   message Vote = 3 {
//     signed u32   view;
//     signed bytes digest;
//     u32    hint;
//   }
//
// `signed` is pure metadata — it does not change the wire encoding. It marks
// the field as covered by the sender's authenticator when the scenario runs
// with a SignedAdapter (signed_adapter.h): mutating a signed field breaks the
// MAC and is *detected* by honest receivers, while unsigned fields remain
// silently mutable.
//
// Comments run from '#' or '//' to end of line.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace turret::wire {

class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

/// Field types supported by the format compiler. Matches the paper's set:
/// boolean, signed/unsigned integers of 8..64 bits, float, double — plus
/// `bytes` for opaque variable-length payloads (digests, batches).
enum class FieldType : std::uint8_t {
  kBool,
  kI8,
  kI16,
  kI32,
  kI64,
  kU8,
  kU16,
  kU32,
  kU64,
  kF32,
  kF64,
  kBytes,
};

/// Human-readable name ("u32", "bytes", ...).
std::string_view field_type_name(FieldType t);

/// Parse a type keyword; nullopt if unknown.
std::optional<FieldType> field_type_from_name(std::string_view name);

bool is_integer(FieldType t);
bool is_signed_integer(FieldType t);
bool is_unsigned_integer(FieldType t);
bool is_float(FieldType t);

/// Inclusive numeric range of an integer field type.
std::int64_t integer_min(FieldType t);
std::uint64_t integer_max(FieldType t);

struct FieldSpec {
  std::string name;
  FieldType type;
  /// True when the field is covered by the sender's authenticator (the
  /// `signed` DSL modifier). Metadata only: the wire encoding is unchanged.
  bool is_signed = false;
};

/// Message type tag carried as the first u16 on the wire.
using TypeTag = std::uint16_t;

struct MessageSpec {
  std::string name;
  TypeTag tag = 0;
  std::vector<FieldSpec> fields;

  /// Index of a field by name; nullopt if absent.
  std::optional<std::size_t> field_index(std::string_view field_name) const;

  /// True if any field carries the `signed` modifier.
  bool has_signed_fields() const;
};

/// A parsed protocol description.
class Schema {
 public:
  Schema() = default;
  Schema(std::string protocol_name, std::vector<MessageSpec> messages);

  const std::string& protocol() const { return protocol_; }
  const std::vector<MessageSpec>& messages() const { return messages_; }

  /// Lookup by wire tag; nullptr if the tag is not described.
  const MessageSpec* by_tag(TypeTag tag) const;

  /// Lookup by message name; nullptr if absent.
  const MessageSpec* by_name(std::string_view name) const;

 private:
  std::string protocol_;
  std::vector<MessageSpec> messages_;
};

/// Compile a `.msg` description. Throws WireError with a line number on
/// syntax errors, duplicate names/tags, or unknown field types.
Schema parse_schema(std::string_view text);

}  // namespace turret::wire
