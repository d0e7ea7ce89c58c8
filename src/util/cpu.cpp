#include "util/cpu.hpp"

#include <cpuid.h>

#include <cstddef>
#include <iterator>

namespace recoil {

namespace {

bool has(u64 word, unsigned bit) { return ((word >> bit) & 1u) != 0; }

CpuidWords read_cpuid_words() {
    CpuidWords w;
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid(1, &eax, &ebx, &ecx, &edx)) w.leaf1_ecx = ecx;
    if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) {
        w.leaf7_ebx = ebx;
        w.leaf7_ecx = ecx;
    }
    if (has(w.leaf1_ecx, 27)) {  // OSXSAVE: XGETBV exists
        u32 lo = 0, hi = 0;
        __asm__("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
        w.xcr0 = (u64{hi} << 32) | lo;
    }
    return w;
}

}  // namespace

CpuFeatures detect_cpu_features(const CpuidWords& w) {
    struct Need {
        const char* name;
        bool met;
    };
    // In the order avx512_fnv_missing names them; the first two guard AVX2
    // and the first seven AVX-512.
    const Need needs[] = {
        {"OSXSAVE", has(w.leaf1_ecx, 27)},
        {"XCR0.YMM", (w.xcr0 & 0x06) == 0x06},
        {"XCR0.ZMM", (w.xcr0 & 0xe0) == 0xe0},
        {"AVX512F", has(w.leaf7_ebx, 16)},
        {"AVX512DQ", has(w.leaf7_ebx, 17)},
        {"AVX512BW", has(w.leaf7_ebx, 30)},
        {"AVX512VL", has(w.leaf7_ebx, 31)},
        {"AVX512VBMI", has(w.leaf7_ecx, 1)},
        {"GFNI", has(w.leaf7_ecx, 8)},
        {"VPCLMULQDQ", has(w.leaf7_ecx, 10)},
    };
    std::size_t met = 0;  // leading requirements met
    while (met < std::size(needs) && needs[met].met) ++met;

    CpuFeatures f;
    f.avx2 = met >= 2 && has(w.leaf7_ebx, 5);
    f.avx512 = met >= 7;
    f.avx512_fnv = met == std::size(needs);
    if (!f.avx512_fnv) f.avx512_fnv_missing = needs[met].name;
    return f;
}

const CpuFeatures& cpu_features() {
    static const CpuFeatures f = detect_cpu_features(read_cpuid_words());
    return f;
}

}  // namespace recoil
