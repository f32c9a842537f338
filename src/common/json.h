// Minimal JSON reader shared by the fault-plan loader (faults/fault_json.cpp)
// and the topology-spec loader (cluster/topology.cpp). Their writers print
// numbers with common/record_io's format_double.
//
// Hand-rolled recursive descent: the project takes no JSON library
// dependency, and both schemas are small. It reads one value of the full grammar
// (objects, arrays, strings with the escapes \" \\ \/ \n \t \r, numbers,
// true, false, null) nested at most 256 deep. obs::read_events keeps its own
// reader: event-log lines are flat one-line objects, a different grammar.
#pragma once

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace heterog::json {

struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Value> array;
  std::map<std::string, Value> object;
};

/// A syntax error. what() is the reason and its byte offset, e.g.
/// "expected ':' (at offset 12)"; each loader rethrows it as its own typed
/// error under its own prefix.
class ParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Parses `text` as exactly one JSON value (surrounding whitespace allowed).
/// A number must convert in full: "1-2", "4e" and "100.0.5" are errors, not
/// their longest valid prefix. Throws ParseError.
Value parse(const std::string& text);

}  // namespace heterog::json
