#pragma once
// Runtime CPU feature detection for SIMD kernel dispatch.

#include "util/ints.hpp"

namespace recoil {

struct CpuFeatures {
    bool avx2 = false;
    /// AVX512 F/DQ/BW/VL, VBMI, VBMI2, GFNI and VPCLMULQDQ, with BMI2: the
    /// decode kernel (simd/avx512_kernels.cpp) and the bit-sliced FNV-1a
    /// (format/container.cpp). Ice Lake and later have them; Skylake-SP and
    /// Cascade Lake take the AVX2 kernel and the serial checksum.
    bool avx512 = false;
    /// The first feature avx512 lacks, by name; nullptr when it is set.
    const char* avx512_missing = nullptr;
};

/// The words detection reads. A SIMD bit counts only when the OS saves the
/// state it touches: CPUID.1:ECX.OSXSAVE set, then XCR0 bits 1-2 (XMM, YMM)
/// for AVX2 and also bits 5-7 (opmask, ZMM) for AVX-512. `xcr0` is 0 when
/// OSXSAVE is clear, since XGETBV faults then.
struct CpuidWords {
    u32 leaf1_ecx = 0;
    u32 leaf7_ebx = 0;  ///< leaf 7, subleaf 0 (AVX2, BMI2, AVX512 F/DQ/BW/VL)
    u32 leaf7_ecx = 0;  ///< VBMI, VBMI2, GFNI, VPCLMULQDQ
    u64 xcr0 = 0;
};

/// Features from the words alone, so a test can feed masked words.
CpuFeatures detect_cpu_features(const CpuidWords& w);

/// Detected once per process via cpuid and xgetbv.
const CpuFeatures& cpu_features();

}  // namespace recoil
