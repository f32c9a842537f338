// Declared command-line flags. A command declares each flag once — name,
// kind, default — and Flags::parse reads argv against the declarations.
// Numbers are read as the text formats read them (Fields, common/record_io):
// the whole token, no '+', no base prefix, within bounds. Any mismatch is a
// UsageError whose one-line message names the flag; Flags::usage renders the
// declarations.
#pragma once

#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/record_io.h"

namespace heterog {

class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One parsed command line: each declared flag's value as given, else its
/// default ("" when it has none).
class FlagValues {
 public:
  /// True when the command line gave the flag.
  bool has(std::string_view name) const { return value(name).given; }
  const std::string& text(std::string_view name) const { return value(name).text; }
  template <typename T>
  T integer(std::string_view name) const {
    return Fields(text(name)).integer<T>(name);
  }
  double real(std::string_view name) const { return Fields(text(name)).real(name); }
  const std::vector<std::string>& operands() const { return operands_; }

 private:
  friend class Flags;
  struct Value {
    std::string text;
    bool given = false;
  };
  const Value& value(std::string_view name) const;  // CheckError when undeclared

  std::map<std::string, Value, std::less<>> values_;
  std::vector<std::string> operands_;
};

class Flags {
 public:
  /// Given or not; takes no value.
  Flags& toggle(std::string name) { return declare(std::move(name), "", "", nullptr); }
  /// Free text, such as a model name.
  Flags& text(std::string name, std::string value_name, std::string fallback = "") {
    return declare(std::move(name), std::move(value_name), std::move(fallback), nullptr);
  }
  /// A file or directory: a value that is not empty.
  Flags& path(std::string name, std::string value_name = "FILE");
  /// An integer of type T in [min, max].
  template <typename T>
  Flags& integer(std::string name, T min, T max, std::string fallback = "") {
    return number(std::move(name), "N", std::move(fallback),
                  [min, max](Fields& value) { value.integer<T>("value", min, max); });
  }
  /// A real number strictly between `above` and `below`.
  Flags& real(std::string name, std::string value_name, double above, double below,
              std::string fallback = "");
  /// One of `values`; the first is the default.
  Flags& choice(std::string name, std::vector<std::string> values);
  /// The flag declared last must be given.
  Flags& required() {
    flags_.back().required = true;
    return *this;
  }
  /// Bare operands are accepted too (report's files).
  Flags& operands(std::string value_name) {
    operands_ = std::move(value_name);
    return *this;
  }
  /// Declares every flag of `block`.
  Flags& add(const Flags& block) {
    flags_.insert(flags_.end(), block.flags_.begin(), block.flags_.end());
    return *this;
  }

  /// Reads `args`, the words after the command name.
  FlagValues parse(const std::vector<std::string>& args) const;
  /// "--model NAME --batch B [--steps N=20] [--health] FILE...", wrapped at 80
  /// columns with continuation lines indented by `indent`.
  std::string usage(size_t indent) const;

 private:
  struct Flag {
    std::string name;
    std::string value_name;                       // empty for a switch
    std::string fallback;
    std::function<void(std::string_view)> check;  // throws ParseError
    bool required = false;
  };
  Flags& declare(std::string name, std::string value_name, std::string fallback,
                 std::function<void(std::string_view)> check);
  /// A flag whose value, one token, `read` takes apart.
  Flags& number(std::string name, std::string value_name, std::string fallback,
                std::function<void(Fields&)> read);

  std::vector<Flag> flags_;
  std::string operands_;
};

}  // namespace heterog
