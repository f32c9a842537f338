#include "common/flags.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace heterog {

namespace {

bool is_flag(const std::string& word) { return word.rfind("--", 0) == 0; }

std::string quote(std::string_view text) { return "\"" + std::string(text) + "\""; }

}  // namespace

const FlagValues::Value& FlagValues::value(std::string_view name) const {
  const auto it = values_.find(name);
  check_lazy(it != values_.end(),
             [&] { return "FlagValues: undeclared flag --" + std::string(name); });
  return it->second;
}

Flags& Flags::declare(std::string name, std::string value_name, std::string fallback,
                      std::function<void(std::string_view)> check) {
  flags_.push_back({std::move(name), std::move(value_name), std::move(fallback),
                    std::move(check)});
  return *this;
}

Flags& Flags::number(std::string name, std::string value_name, std::string fallback,
                     std::function<void(Fields&)> read) {
  return declare(std::move(name), std::move(value_name), std::move(fallback),
                 [read = std::move(read)](std::string_view token) {
                   // Fields would split "64 x" and skip leading blanks.
                   if (token.find_first_of(" \t\r\n") != std::string_view::npos) {
                     throw ParseError("malformed value " + quote(token));
                   }
                   Fields value(token);
                   read(value);
                 });
}

Flags& Flags::path(std::string name, std::string value_name) {
  return declare(std::move(name), std::move(value_name), "", [](std::string_view token) {
    if (token.empty()) throw ParseError("empty path");
  });
}

Flags& Flags::real(std::string name, std::string value_name, double above, double below,
                   std::string fallback) {
  return number(std::move(name), std::move(value_name), std::move(fallback),
                [above, below](Fields& value) {
                  const double v = value.real("value");
                  if (!(v > above && v < below)) {
                    throw ParseError("value " + format_shortest(v) + " out of range (" +
                                     format_shortest(above) + ", " +
                                     format_shortest(below) + ")");
                  }
                });
}

Flags& Flags::choice(std::string name, std::vector<std::string> values) {
  std::string list = values.at(0);
  for (size_t i = 1; i < values.size(); ++i) list += "|" + values[i];
  const std::string fallback = values[0];
  return declare(std::move(name), list, fallback, [values, list](std::string_view token) {
    if (std::find(values.begin(), values.end(), token) == values.end()) {
      throw ParseError("value " + quote(token) + " is not one of " + list);
    }
  });
}

FlagValues Flags::parse(const std::vector<std::string>& args) const {
  FlagValues out;
  for (const Flag& flag : flags_) out.values_[flag.name] = {flag.fallback, false};
  const Flag* last_switch = nullptr;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& word = args[i];
    const Flag* after_switch = std::exchange(last_switch, nullptr);
    if (!is_flag(word)) {
      if (!operands_.empty()) {
        out.operands_.push_back(word);
        continue;
      }
      if (after_switch == nullptr) throw UsageError("unexpected argument " + quote(word));
      throw UsageError("--" + after_switch->name + " takes no value, got " + quote(word));
    }
    const auto flag = std::find_if(flags_.begin(), flags_.end(),
                                   [&](const Flag& f) { return "--" + f.name == word; });
    if (flag == flags_.end()) throw UsageError("unknown flag " + word);
    FlagValues::Value& value = out.values_[flag->name];
    if (value.given) throw UsageError(word + " given twice");
    value.given = true;
    if (flag->value_name.empty()) {
      last_switch = &*flag;
      continue;
    }
    if (i + 1 == args.size() || is_flag(args[i + 1])) {
      throw UsageError(word + " needs a value (" + flag->value_name + ")");
    }
    value.text = args[++i];
    try {
      if (flag->check) flag->check(value.text);
    } catch (const ParseError& e) {
      throw UsageError(word + ": " + e.what());
    }
  }
  for (const Flag& flag : flags_) {
    if (flag.required && !out.values_[flag.name].given) {
      throw UsageError("missing --" + flag.name + " " + flag.value_name);
    }
  }
  return out;
}

std::string Flags::usage(size_t indent) const {
  std::string out;
  size_t column = indent;
  auto append = [&](const std::string& word) {
    if (column > indent && column + 1 + word.size() > 80) {
      out += "\n" + std::string(indent, ' ');
      column = indent;
    } else if (column > indent) {
      out += ' ';
      ++column;
    }
    out += word;
    column += word.size();
  };
  for (const Flag& flag : flags_) {
    std::string word = "--" + flag.name;
    if (!flag.value_name.empty()) word += " " + flag.value_name;
    if (!flag.fallback.empty()) word += "=" + flag.fallback;
    append(flag.required ? word : "[" + word + "]");
  }
  if (!operands_.empty()) append(operands_ + "...");
  return out;
}

}  // namespace heterog
