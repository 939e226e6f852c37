#include "common/varint.h"

#include <cstring>

namespace fglb {

void PutVarint64(std::string* dst, uint64_t v) {
  while (v >= 0x80) {
    dst->push_back(static_cast<char>(0x80 | (v & 0x7F)));
    v >>= 7;
  }
  dst->push_back(static_cast<char>(v));
}

size_t GetVarint64(const uint8_t* p, const uint8_t* limit, uint64_t* v) {
  uint64_t result = 0;
  for (size_t shift = 0, i = 0; shift <= 63 && p + i < limit; ++i,
              shift += 7) {
    const uint8_t byte = p[i];
    result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *v = result;
      return i + 1;
    }
  }
  return 0;  // truncated or over-long
}

void PutFixed32(std::string* dst, uint32_t v) {
  char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>(v >> (8 * i));
  dst->append(buf, sizeof(buf));
}

void PutFixed64(std::string* dst, uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>(v >> (8 * i));
  dst->append(buf, sizeof(buf));
}

bool GetFixed32(const uint8_t* p, const uint8_t* limit, uint32_t* v) {
  if (limit - p < 4) return false;
  uint32_t result = 0;
  for (int i = 0; i < 4; ++i) result |= static_cast<uint32_t>(p[i]) << (8 * i);
  *v = result;
  return true;
}

bool GetFixed64(const uint8_t* p, const uint8_t* limit, uint64_t* v) {
  if (limit - p < 8) return false;
  uint64_t result = 0;
  for (int i = 0; i < 8; ++i) result |= static_cast<uint64_t>(p[i]) << (8 * i);
  *v = result;
  return true;
}

uint64_t DoubleToBits(double d) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

double BitsToDouble(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

namespace {

// Slice-by-8 tables: entries[0] is the classic bytewise table, and
// entries[k][b] is the CRC of byte b followed by k zero bytes, so eight
// lookups fold eight input bytes into the register at once.
struct Crc32Tables {
  uint32_t entries[8][256];
  Crc32Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      entries[0][i] = c;
    }
    for (int k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        const uint32_t prev = entries[k - 1][i];
        entries[k][i] = entries[0][prev & 0xFF] ^ (prev >> 8);
      }
    }
  }
};

uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32(const void* data, size_t n, uint32_t seed) {
  static const Crc32Tables tables;
  const auto& t = tables.entries;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; n >= 8; n -= 8, p += 8) {
    const uint32_t lo = LoadLe32(p) ^ c;
    const uint32_t hi = LoadLe32(p + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace fglb
