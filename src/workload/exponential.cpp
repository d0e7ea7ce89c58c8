#include <cmath>

#include "util/xoshiro.hpp"
#include "workload/datasets.hpp"

namespace recoil::workload {

std::vector<u8> gen_exponential(u64 size, double lambda, u64 seed) {
    // floor of an exponential is geometric with q = exp(-rate); rate is
    // calibrated so the lambda values of the paper span its Table 4
    // compression ladder (the paper's 77% .. 9% of raw at n = 16; this
    // generator gives about 72% .. 6%, bench_table4).
    const double rate = lambda / 200.0;
    Xoshiro256 rng(seed ^ 0xe4f0'97b1'23c5'66adull);
    std::vector<u8> out(size);
    for (auto& b : out) {
        const double u = 1.0 - rng.uniform();  // (0, 1]
        const double v = std::floor(-std::log(u) / rate);
        b = static_cast<u8>(v > 255.0 ? 255.0 : v);
    }
    return out;
}

}  // namespace recoil::workload
