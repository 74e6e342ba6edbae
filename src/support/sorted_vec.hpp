// Sorted-unique vector utilities.
//
// Proposition sets in the planner (regression states, precondition sets) are
// small sorted vectors of 32-bit ids: faster to hash, compare, and regress
// over than tree- or hash-based sets, and cache friendly (HPC idiom: flat
// contiguous data).
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

namespace sekitei {

/// Inserts `v` keeping `xs` sorted and unique.  Returns true if inserted.
template <class T>
bool sorted_insert(std::vector<T>& xs, const T& v) {
  auto it = std::lower_bound(xs.begin(), xs.end(), v);
  if (it != xs.end() && *it == v) return false;
  xs.insert(it, v);
  return true;
}

template <class T>
[[nodiscard]] bool sorted_contains(const std::vector<T>& xs, const T& v) {
  return std::binary_search(xs.begin(), xs.end(), v);
}

/// True when every element of `sub` occurs in `sup` (both sorted unique).
template <class T>
[[nodiscard]] bool sorted_subset(const std::vector<T>& sub, const std::vector<T>& sup) {
  return std::includes(sup.begin(), sup.end(), sub.begin(), sub.end());
}

template <class T>
[[nodiscard]] bool sorted_subset(std::span<const T> sub, const std::vector<T>& sup) {
  return std::includes(sup.begin(), sup.end(), sub.begin(), sub.end());
}

/// True when the two sorted ranges share at least one element.
template <class T>
[[nodiscard]] bool sorted_intersects(const std::vector<T>& xs, const std::vector<T>& ys) {
  auto i = xs.begin();
  auto j = ys.begin();
  while (i != xs.end() && j != ys.end()) {
    if (*i == *j) return true;
    if (*i < *j) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

/// FNV-1a style hash of a sorted id range (for set memo tables).
template <class Range>
[[nodiscard]] std::size_t hash_sorted(const Range& xs) {
  std::size_t h = 1469598103934665603ULL;
  for (const auto& x : xs) {
    h ^= static_cast<std::size_t>(x.value);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace sekitei
