// CRC32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78): the
// checksum used by iSCSI, ext4, and RDMA wire protocols, and by this
// library to verify every rendezvous payload end-to-end (see the fault &
// reliability section of DESIGN.md). On real NICs the ICRC is computed in
// hardware, so the simulator charges zero virtual time for it; the host
// still computes it for every checked payload.
//
// `crc32c` uses the SSE4.2 `crc32` instruction (8 bytes per instruction)
// when the CPU reports SSE4.2, chosen once per process at run time with no
// build flag; elsewhere it falls back to the portable slice-by-8 tables,
// which tests also run directly as the oracle for the hardware path.
//
// Incremental use: pass the previous return value as `crc` to extend a
// running checksum over split buffers; the default 0 starts a fresh one.
#pragma once

#include <cstddef>
#include <cstdint>

namespace gcmpi::util {

/// CRC32C of `bytes` bytes at `data`, chained onto `crc` (0 = fresh).
[[nodiscard]] std::uint32_t crc32c(const void* data, std::size_t bytes,
                                   std::uint32_t crc = 0);

/// Software slice-by-8 CRC32C: the fallback on CPUs without SSE4.2. Same
/// result as `crc32c` on every input.
[[nodiscard]] std::uint32_t crc32c_portable(const void* data, std::size_t bytes,
                                            std::uint32_t crc = 0);

/// Bit-at-a-time reference implementation (for cross-checking the sliced
/// tables and the hardware path in tests; do not use on hot paths).
[[nodiscard]] std::uint32_t crc32c_reference(const void* data, std::size_t bytes,
                                             std::uint32_t crc = 0);

}  // namespace gcmpi::util
