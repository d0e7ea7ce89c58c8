// Minimal file compressor built on the container format:
//   recoil_file_cli c <input> <output.rcf> [max_splits]   compress
//   recoil_file_cli d <input.rcf> <output> [threads]      decompress
//   recoil_file_cli serve <input.rcf> <output.rcf> <M>    combine splits
// `d` decodes static and indexed containers; 16-bit symbols come out as two
// little-endian bytes each. With no arguments, runs a self-demo on a
// temporary buffer.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "core/recoil_encoder.hpp"
#include "format/container.hpp"
#include "rans/symbol_stats.hpp"
#include "util/thread_pool.hpp"
#include "workload/datasets.hpp"

using namespace recoil;

namespace {

std::vector<u8> read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) raise("cannot open " + path);
    return std::vector<u8>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, std::span<const u8> bytes) {
    std::ofstream out(path, std::ios::binary);
    if (!out) raise("cannot open " + path);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

std::vector<u8> compress(std::span<const u8> data, u32 max_splits) {
    StaticModel model(histogram(data), 11);
    auto enc = recoil_encode<Rans32, 32>(data, model, max_splits);
    return format::save_recoil_file(format::make_recoil_file(enc, model, 1));
}

std::vector<u8> decompress(std::span<const u8> bytes, unsigned threads) {
    ThreadPool pool(threads);
    return format::decode_file(format::load_recoil_file(bytes), &pool);
}

int self_demo() {
    std::printf("self-demo: compress/serve/decompress a 2 MB buffer\n");
    auto data = workload::gen_text(2 << 20, 99);
    auto rcf = compress(data, 256);
    std::printf("compressed %zu -> %zu bytes (%.1f%%)\n", data.size(), rcf.size(),
                100.0 * static_cast<double>(rcf.size()) / data.size());
    auto f = format::load_recoil_file(rcf);
    auto served = format::save_recoil_file(f, combine_splits(f.metadata, 4));
    std::printf("served 4-way metadata: %zu bytes on the wire\n", served.size());
    auto out = decompress(served, 4);
    std::printf("round trip: %s\n", out == data ? "OK" : "MISMATCH");
    return out == data ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        if (argc < 2) return self_demo();
        const std::string mode = argv[1];
        if (mode == "c" && argc >= 4) {
            const u32 splits = argc > 4 ? static_cast<u32>(std::atoi(argv[4])) : 1024;
            auto data = read_file(argv[2]);
            auto rcf = compress(data, splits);
            write_file(argv[3], rcf);
            std::printf("%zu -> %zu bytes (%u max splits)\n", data.size(), rcf.size(),
                        splits);
            return 0;
        }
        if (mode == "d" && argc >= 4) {
            const unsigned threads =
                argc > 4 ? static_cast<unsigned>(std::atoi(argv[4]))
                         : std::thread::hardware_concurrency();
            auto rcf = read_file(argv[2]);
            auto data = decompress(rcf, threads);
            write_file(argv[3], data);
            std::printf("%zu -> %zu bytes (%u threads)\n", rcf.size(), data.size(),
                        threads);
            return 0;
        }
        if (mode == "serve" && argc >= 5) {
            auto f = format::load_recoil_file(read_file(argv[2]));
            auto served = format::save_recoil_file(
                f, combine_splits(f.metadata, static_cast<u32>(std::atoi(argv[4]))));
            write_file(argv[3], served);
            std::printf("served %s with %s splits: %zu bytes\n", argv[2], argv[4],
                        served.size());
            return 0;
        }
        std::fprintf(stderr,
                     "usage: %s c <in> <out.rcf> [max_splits] | d <in.rcf> <out> "
                     "[threads] | serve <in.rcf> <out.rcf> <M>\n",
                     argv[0]);
        return 2;
    } catch (const std::exception& e) {  // recoil::Error, bad_alloc, ...
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
