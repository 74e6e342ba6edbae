// Append-only array grown in fixed-size chunks.
//
// The search structures that grow to millions of entries (the RG's node
// pool, the SLRG memos, the set store's records) live here instead of in a
// std::vector: growing never moves an element, so references stay valid,
// and never holds the old and the new buffer at once, so peak memory is the
// data itself rather than up to twice its size.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace sekitei {

template <class T>
class ChunkedArray {
 public:
  static constexpr std::size_t kChunk = std::size_t{1} << 16;

  /// Extends the array to `n` elements (never shrinks); new ones are
  /// value-initialized.
  void resize(std::size_t n) {
    while (size_ < n) {
      if (size_ % kChunk == 0) chunks_.emplace_back().reserve(kChunk);
      std::vector<T>& chunk = chunks_.back();
      const std::size_t add = std::min(n - size_, kChunk - chunk.size());
      chunk.resize(chunk.size() + add);  // within capacity: no move
      size_ += add;
    }
  }

  void push_back(const T& v) {
    if (size_ % kChunk == 0) chunks_.emplace_back().reserve(kChunk);
    chunks_.back().push_back(v);
    ++size_;
  }

  void clear() {
    chunks_.clear();
    size_ = 0;
  }

  [[nodiscard]] T& operator[](std::size_t i) { return chunks_[i / kChunk][i % kChunk]; }
  [[nodiscard]] const T& operator[](std::size_t i) const { return chunks_[i / kChunk][i % kChunk]; }
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  std::vector<std::vector<T>> chunks_;  // all full but the last
  std::size_t size_ = 0;
};

}  // namespace sekitei
