// SHA-256 compression kernels behind net::Sha256 (internal).
//
// Both kernels run the FIPS 180-4 compression function over `nblocks`
// consecutive 64-byte blocks, updating the eight-word state in place.
// Sha256 picks one once per process from CPUID; tests reach both here to
// cross-check them without a runtime switch.
#pragma once

#include <cstddef>
#include <cstdint>

namespace crowdml::net::detail {

using Sha256BlockFn = void (*)(std::uint32_t* state, const std::uint8_t* blocks,
                               std::size_t nblocks);

/// Portable C++ kernel; runs everywhere.
void sha256_blocks_portable(std::uint32_t* state, const std::uint8_t* blocks,
                            std::size_t nblocks);

/// x86-64 SHA-NI kernel, or nullptr when this CPU (or build target) lacks
/// the SHA extensions.
Sha256BlockFn sha256_blocks_shani();

}  // namespace crowdml::net::detail
