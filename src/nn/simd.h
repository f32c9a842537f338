// Two-lane double arithmetic for the nn kernels (private to src/nn).
//
// A Pair holds two doubles in one SIMD register: SSE2 on x86-64, NEON on
// AArch64, two scalars elsewhere. Each lane is plain IEEE double arithmetic
// with the scalar expression's operand order, so an element computed
// through a Pair is bit-identical to the scalar loop's.
#pragma once

#include <cstddef>
#include <cstring>

namespace heterog::nn::simd {

using Pair = double __attribute__((vector_size(16)));

inline Pair splat(double v) { return Pair{v, v}; }

inline Pair load(const double* p) {
  Pair v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store(double* p, Pair v) { std::memcpy(p, &v, sizeof v); }

/// dst[i] = src[i].
inline void copy(double* dst, const double* src, size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) store(dst + i, load(src + i));
  if (i < n) dst[i] = src[i];
}

/// dst[i] += src[i].
inline void add(double* dst, const double* src, size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) store(dst + i, load(dst + i) + load(src + i));
  if (i < n) dst[i] += src[i];
}

/// dst[i] = a[i] + b[i].
inline void sum(double* dst, const double* a, const double* b, size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) store(dst + i, load(a + i) + load(b + i));
  if (i < n) dst[i] = a[i] + b[i];
}

/// dst[i] = a[i] * b[i].
inline void product(double* dst, const double* a, const double* b, size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) store(dst + i, load(a + i) * load(b + i));
  if (i < n) dst[i] = a[i] * b[i];
}

/// dst[i] += a[i] * b[i].
inline void add_product(double* dst, const double* a, const double* b, size_t n) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    store(dst + i, load(dst + i) + load(a + i) * load(b + i));
  }
  if (i < n) dst[i] += a[i] * b[i];
}

/// dst[i] = src[i] * w.
inline void scaled(double* dst, const double* src, double w, size_t n) {
  const Pair ww = splat(w);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) store(dst + i, load(src + i) * ww);
  if (i < n) dst[i] = src[i] * w;
}

/// dst[i] += src[i] * w.
inline void add_scaled(double* dst, const double* src, double w, size_t n) {
  const Pair ww = splat(w);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) store(dst + i, load(dst + i) + load(src + i) * ww);
  if (i < n) dst[i] += src[i] * w;
}

}  // namespace heterog::nn::simd
