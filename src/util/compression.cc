#include "util/compression.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

#include "util/coding.h"

namespace myraft {

namespace {

constexpr int kMinMatch = 4;
constexpr size_t kMaxDistance = 64 * 1024;
constexpr int kHashBits = 15;
constexpr size_t kHashSize = 1u << kHashBits;
// Largest up-front reservation LzDecompress makes from the size header.
constexpr uint64_t kMaxReserve = 1u << 20;

inline uint32_t HashQuad(const char* p) {
  uint32_t v;
  memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

// Match-finder hash table, reused across calls instead of allocated and
// cleared per call. A slot holds `base + pos`; every call advances `base`
// past all positions of the previous one, so a slot below `base` is empty
// and the matches found are exactly those of a freshly cleared table.
struct MatchTable {
  std::vector<uint32_t> slots = std::vector<uint32_t>(kHashSize, 0);
  uint32_t base = 1;

  /// Starts a call over `n` input bytes: positions [0, n) map to
  /// [base, base + n). Refills only when `base` would overflow.
  void Begin(size_t n) {
    if (n >= std::numeric_limits<uint32_t>::max() - base) {
      std::fill(slots.begin(), slots.end(), 0);
      base = 1;
    }
  }
  void End(size_t n) { base += static_cast<uint32_t>(n) + 1; }
};

// Command tags in the compressed stream.
constexpr uint8_t kLiteralTag = 0;
constexpr uint8_t kMatchTag = 1;

void EmitLiterals(const char* base, size_t start, size_t end,
                  std::string* out) {
  if (end <= start) return;
  out->push_back(static_cast<char>(kLiteralTag));
  PutVarint64(out, end - start);
  out->append(base + start, end - start);
}

}  // namespace

void LzCompress(const Slice& input, std::string* output) {
  output->clear();
  PutVarint64(output, input.size());
  const char* base = input.data();
  const size_t n = input.size();

  if (n < static_cast<size_t>(kMinMatch)) {
    EmitLiterals(base, 0, n, output);
    return;
  }

  thread_local MatchTable match_table;
  match_table.Begin(n);
  uint32_t* table = match_table.slots.data();
  const uint32_t slot_base = match_table.base;
  size_t literal_start = 0;
  size_t i = 0;
  const size_t match_limit = n - kMinMatch;

  while (i <= match_limit) {
    const uint32_t h = HashQuad(base + i);
    const uint32_t slot = table[h];
    table[h] = slot_base + static_cast<uint32_t>(i);

    const size_t candidate = slot - slot_base;
    if (slot >= slot_base && i - candidate <= kMaxDistance &&
        memcmp(base + candidate, base + i, kMinMatch) == 0) {
      // Extend the match as far as possible.
      size_t len = kMinMatch;
      while (i + len < n && base[candidate + len] == base[i + len]) ++len;

      EmitLiterals(base, literal_start, i, output);
      output->push_back(static_cast<char>(kMatchTag));
      PutVarint64(output, len);
      PutVarint64(output, i - candidate);

      // Seed the hash table inside the match so future matches can land
      // mid-way (sparsely, to bound cost).
      const size_t match_end = i + len;
      for (size_t j = i + 1; j + kMinMatch <= match_end && j <= match_limit;
           j += 2) {
        table[HashQuad(base + j)] = slot_base + static_cast<uint32_t>(j);
      }
      i = match_end;
      literal_start = i;
    } else {
      ++i;
    }
  }
  match_table.End(n);
  EmitLiterals(base, literal_start, n, output);
}

Status LzDecompress(const Slice& input, std::string* output) {
  output->clear();
  Slice in = input;
  uint64_t expected_size;
  if (!GetVarint64(&in, &expected_size)) {
    return Status::Corruption("lz: missing size header");
  }
  // The header alone must not force an allocation: reserve at most a
  // bounded prefix and let real output grow the buffer.
  output->reserve(std::min<uint64_t>(expected_size, kMaxReserve));

  while (!in.empty()) {
    const uint8_t tag = static_cast<uint8_t>(in[0]);
    in.RemovePrefix(1);
    if (tag == kLiteralTag) {
      Slice run;
      uint64_t len;
      if (!GetVarint64(&in, &len) || in.size() < len) {
        return Status::Corruption("lz: truncated literal run");
      }
      if (len > expected_size - output->size()) {
        return Status::Corruption("lz: output overruns declared size");
      }
      run = Slice(in.data(), len);
      in.RemovePrefix(len);
      output->append(run.data(), run.size());
    } else if (tag == kMatchTag) {
      uint64_t len, dist;
      if (!GetVarint64(&in, &len) || !GetVarint64(&in, &dist)) {
        return Status::Corruption("lz: truncated match");
      }
      if (dist == 0 || dist > output->size()) {
        return Status::Corruption("lz: match distance out of window");
      }
      // Checked before copying: a corrupt length must be rejected, not
      // materialised.
      if (len > expected_size - output->size()) {
        return Status::Corruption("lz: output overruns declared size");
      }
      const size_t from = output->size() - dist;
      if (dist >= len) {
        output->append(*output, from, len);
      } else {
        // Byte-by-byte copy handles overlapping matches (RLE case).
        for (uint64_t k = 0; k < len; ++k) {
          output->push_back((*output)[from + k]);
        }
      }
    } else {
      return Status::Corruption("lz: bad command tag");
    }
  }
  if (output->size() != expected_size) {
    return Status::Corruption("lz: output size mismatch");
  }
  return Status::OK();
}

size_t LzMaxCompressedSize(size_t input_size) {
  // Worst case: header + one literal command.
  return input_size + 2 * 10 + 1;
}

}  // namespace myraft
