// Positional counts for the examples ("./quickstart 20").
#pragma once

#include <cstdio>
#include <cstdlib>

#include "common/record_io.h"

namespace heterog::examples {

/// argv[index] read as one whole integer token in [0, 1,000,000], or
/// `fallback` when the argument is absent. A malformed or out-of-range count
/// ("abc", "12x", "3 4", "-1") prints one line and exits 1.
inline int count_arg(int argc, char** argv, int index, const char* what, int fallback) {
  if (argc <= index) return fallback;
  try {
    Fields fields(argv[index]);
    const int value = fields.integer<int>(what, 0, 1'000'000);
    fields.finish();
    return value;
  } catch (const ParseError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::exit(1);
  }
}

}  // namespace heterog::examples
