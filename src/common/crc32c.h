// CRC32C (Castagnoli, reflected polynomial 0x1EDC6A41 / 0x82F63B78):
// the checksum guarding every WAL record and snapshot of the durable
// catalog (storage/). Castagnoli rather than the zlib CRC32 because its
// error-detection properties for short records are better studied and it
// matches what LevelDB/RocksDB-style logs use, so on-disk artifacts are
// recognizable to standard tooling (tools/corrupt_wal.py recomputes it in
// pure Python).
//
// Dispatch: the implementation is chosen once per process, on first use.
// On x86-64 CPUs with SSE4.2 it is the crc32 instruction, eight bytes per
// step (compiled with a per-function target attribute and chosen with
// __builtin_cpu_supports, so no build flag is needed); every other CPU
// runs portable slicing-by-4 (about 0.8 GB/s). Both compute the same
// polynomial with the same pre/post inversion, so every checksum — WAL,
// snapshot, page files, spill blocks, wire frames — is byte-identical
// whichever runs. The hardware path matters on the read side: a fresh
// OPEN verifies every page it decodes.
#ifndef QF_COMMON_CRC32C_H_
#define QF_COMMON_CRC32C_H_

#include <cstdint>
#include <string_view>

namespace qf {

// Extends `crc` (the running checksum, 0 for a fresh one) over `data`.
// The returned value is the plain (unmasked) CRC32C.
std::uint32_t Crc32cExtend(std::uint32_t crc, std::string_view data);

inline std::uint32_t Crc32c(std::string_view data) {
  return Crc32cExtend(0, data);
}

namespace detail {
// The portable slicing-by-4 implementation, exposed so tests can check
// the dispatched one against it. Not a runtime switch.
std::uint32_t Crc32cExtendPortable(std::uint32_t crc, std::string_view data);
}  // namespace detail

// Masked form for values stored next to the bytes they checksum, after
// LevelDB: a CRC of data that *contains* CRCs degenerates (a record
// embedding its own checksum field checks trivially), so stored checksums
// are rotated and offset. Verifiers unmask before comparing.
inline std::uint32_t Crc32cMask(std::uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8u;
}
inline std::uint32_t Crc32cUnmask(std::uint32_t masked) {
  std::uint32_t rot = masked - 0xa282ead8u;
  return (rot >> 17) | (rot << 15);
}

}  // namespace qf

#endif  // QF_COMMON_CRC32C_H_
