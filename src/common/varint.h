#ifndef FGLB_COMMON_VARINT_H_
#define FGLB_COMMON_VARINT_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace fglb {

// LEB128 varints, zigzag mapping and fixed-width little-endian scalars
// over std::string buffers, plus CRC-32 — the byte-level codec shared
// by FGLBCAP1 captures and the stats channel's wire format. All
// readers are bounds-checked: they never read past `limit` and report
// malformed input by returning 0 / false (or by clearing Reader::ok),
// so a truncated or corrupted blob can not crash a decoder.

// Appends `v` as a base-128 varint (1..10 bytes).
void PutVarint64(std::string* dst, uint64_t v);

// Decodes a varint starting at `p` (strictly before `limit`). Returns
// the number of bytes consumed, or 0 if the encoding is truncated or
// longer than 10 bytes.
size_t GetVarint64(const uint8_t* p, const uint8_t* limit, uint64_t* v);

// Maps signed deltas onto small unsigned varints. Works for the full
// int64 domain (including the wrap-around deltas of uint64 sequences).
constexpr uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);
}
constexpr int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

// Fixed-width little-endian scalars (bit-exact doubles travel as their
// IEEE-754 bit pattern via PutFixed64).
void PutFixed32(std::string* dst, uint32_t v);
void PutFixed64(std::string* dst, uint64_t v);
bool GetFixed32(const uint8_t* p, const uint8_t* limit, uint32_t* v);
bool GetFixed64(const uint8_t* p, const uint8_t* limit, uint64_t* v);

uint64_t DoubleToBits(double d);
double BitsToDouble(uint64_t bits);

// CRC-32 (IEEE 802.3 polynomial, the zlib crc32). `seed` chains
// incremental updates: Crc32(b, n2, Crc32(a, n1)) == Crc32(a+b).
uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0);

// Bounds-checked payload cursor. Any malformed read flips `ok` and
// every later read returns a zero value, so decoders can sequence
// reads and check once.
struct Reader {
  const uint8_t* p;
  const uint8_t* limit;
  bool ok = true;

  size_t remaining() const { return static_cast<size_t>(limit - p); }

  uint64_t U64() {
    uint64_t v = 0;
    const size_t n = ok ? GetVarint64(p, limit, &v) : 0;
    if (n == 0) {
      ok = false;
      return 0;
    }
    p += n;
    return v;
  }
  int64_t S64() { return ZigZagDecode(U64()); }
  uint8_t U8() {
    if (!ok || p >= limit) {
      ok = false;
      return 0;
    }
    return *p++;
  }
  double F64() {
    uint64_t bits = 0;
    if (!ok || !GetFixed64(p, limit, &bits)) {
      ok = false;
      return 0;
    }
    p += 8;
    return BitsToDouble(bits);
  }
  std::string Str() {
    const uint64_t n = U64();
    if (!ok || n > remaining()) {
      ok = false;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(p), n);
    p += n;
    return s;
  }
  bool AtEnd() const { return ok && p == limit; }

  // Sanity bound for a count of elements that each occupy at least
  // `min_bytes` of the remaining payload (blocks a corrupted count
  // from forcing a huge reserve before decoding fails).
  bool PlausibleCount(uint64_t count, size_t min_bytes) {
    if (!ok || count > remaining() / min_bytes + 1) {
      ok = false;
      return false;
    }
    return true;
  }
};

}  // namespace fglb

#endif  // FGLB_COMMON_VARINT_H_
