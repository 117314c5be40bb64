#include "common/crc32c.h"

#include <array>
#include <cstddef>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define QF_CRC32C_SSE42 1
#endif

namespace qf {
namespace {

// Four 256-entry tables for slicing-by-4, generated once at startup from
// the reflected Castagnoli polynomial.
struct Crc32cTables {
  std::array<std::array<std::uint32_t, 256>, 4> t;

  Crc32cTables() {
    constexpr std::uint32_t kPoly = 0x82F63B78u;
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
      }
      t[0][i] = crc;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = t[0][i];
      for (std::size_t k = 1; k < 4; ++k) {
        crc = t[0][crc & 0xff] ^ (crc >> 8);
        t[k][i] = crc;
      }
    }
  }
};

const Crc32cTables& Tables() {
  static const Crc32cTables tables;
  return tables;
}

#ifdef QF_CRC32C_SSE42
// The SSE4.2 crc32 instruction computes exactly this polynomial, eight
// bytes per instruction. Compiled for SSE4.2 alone, so the rest of the
// build keeps its baseline target; called only after the CPU check.
__attribute__((target("sse4.2"))) std::uint32_t Crc32cExtendSse42(
    std::uint32_t crc, std::string_view data) {
  const char* p = data.data();
  std::size_t n = data.size();
  std::uint64_t c = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    c = _mm_crc32_u64(c, word);
  }
  auto c32 = static_cast<std::uint32_t>(c);
  while (n-- > 0) c32 = _mm_crc32_u8(c32, static_cast<unsigned char>(*p++));
  return ~c32;
}
#endif

}  // namespace

namespace detail {

std::uint32_t Crc32cExtendPortable(std::uint32_t crc, std::string_view data) {
  const Crc32cTables& tb = Tables();
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  crc = ~crc;
  while (n >= 4) {
    crc ^= static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
    crc = tb.t[3][crc & 0xff] ^ tb.t[2][(crc >> 8) & 0xff] ^
          tb.t[1][(crc >> 16) & 0xff] ^ tb.t[0][crc >> 24];
    p += 4;
    n -= 4;
  }
  while (n-- > 0) {
    crc = tb.t[0][(crc ^ *p++) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace detail

std::uint32_t Crc32cExtend(std::uint32_t crc, std::string_view data) {
  using Fn = std::uint32_t (*)(std::uint32_t, std::string_view);
  static const Fn impl = [] {
#ifdef QF_CRC32C_SSE42
    if (__builtin_cpu_supports("sse4.2")) return Fn{&Crc32cExtendSse42};
#endif
    return Fn{&detail::Crc32cExtendPortable};
  }();
  return impl(crc, data);
}

}  // namespace qf
