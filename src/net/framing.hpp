#pragma once
// Transport framing for the serve protocol over a byte stream.
//
// RCRQ/RCRS frames are self-describing but not self-delimiting: decode_*
// in src/serve/protocol.hpp requires the complete frame, and nothing in
// the frame's first bytes announces its total length (v2 body frames in
// particular are header + raw pieces + trailer). TCP gives us a byte
// stream with arbitrary segmentation, so the transport prepends a u32
// little-endian length to every protocol frame:
//
//     [len u32 LE][protocol frame, exactly `len` bytes]
//
// FrameReader reassembles these incrementally. It is deliberately dumb:
// feed() appends whatever bytes arrived (one byte at a time is fine — a
// TCP segment boundary mid-header must never surface as bad_frame), and
// next() pops a complete protocol frame when one is buffered. Popping
// only advances a read offset; feed() drops the consumed bytes once, so
// one read of many pipelined frames costs O(bytes), not O(frames x
// buffer). Length bounds are enforced as soon as the 4-byte prefix is
// complete so a malicious peer cannot make us buffer unbounded garbage.

#include <cstring>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "net/error.hpp"
#include "util/ints.hpp"

namespace recoil::net {

/// Bound on a single transport frame. Generous vs the serve layer's
/// kDefaultMaxFrameBytes (1 MiB): v1 materialized responses can exceed the
/// streaming frame budget, so the transport cap only guards against
/// absurdity, not normal big assets.
inline constexpr u32 kMaxTransportFrame = 256u * 1024 * 1024;

/// Append `frame` to `out` with the u32 LE length prefix.
inline void append_net_frame(std::vector<u8>& out, std::span<const u8> frame) {
    if (frame.size() > kMaxTransportFrame)
        net_fail(NetErrorCode::frame_too_large,
                 "outbound frame of " + std::to_string(frame.size()) +
                     " bytes exceeds transport cap");
    const u32 len = static_cast<u32>(frame.size());
    u8 prefix[4] = {static_cast<u8>(len & 0xff), static_cast<u8>((len >> 8) & 0xff),
                    static_cast<u8>((len >> 16) & 0xff),
                    static_cast<u8>((len >> 24) & 0xff)};
    out.insert(out.end(), prefix, prefix + 4);
    out.insert(out.end(), frame.begin(), frame.end());
}

/// Incremental reassembler for length-prefixed frames. Owned memory is
/// bounded by max_frame + one read's worth of slack: feed() rejects a
/// frame the moment its announced length exceeds the cap.
class FrameReader {
public:
    explicit FrameReader(u32 max_frame = kMaxTransportFrame)
        : max_frame_(max_frame) {}

    /// Buffer newly arrived bytes. Any split is legal, including
    /// mid-length-prefix. Throws NetError{frame_too_large} as soon as a
    /// complete prefix announces a frame above the cap.
    void feed(std::span<const u8> bytes) {
        buf_.erase(buf_.begin(),
                   buf_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
        buf_.insert(buf_.end(), bytes.begin(), bytes.end());
        check_bound();
    }

    /// Pop the next complete protocol frame (without the prefix), or
    /// nullopt if more bytes are needed.
    std::optional<std::vector<u8>> next() {
        if (buffered_bytes() < 4) return std::nullopt;
        const u32 len = peek_len();
        if (buffered_bytes() < 4u + len) return std::nullopt;
        const auto first =
            buf_.begin() + static_cast<std::ptrdiff_t>(head_ + 4);
        std::vector<u8> frame(first, first + len);
        head_ += 4u + len;
        return frame;
    }

    /// True if no partial frame is buffered (clean stream boundary —
    /// used to distinguish orderly EOF from a truncated frame).
    bool empty() const noexcept { return buffered_bytes() == 0; }

    /// Unread bytes buffered (prefix included), for memory accounting.
    std::size_t buffered_bytes() const noexcept { return buf_.size() - head_; }

private:
    /// Length announced by the next unread prefix; requires 4 unread bytes.
    u32 peek_len() const {
        const u8* p = buf_.data() + head_;
        return static_cast<u32>(p[0]) | (static_cast<u32>(p[1]) << 8) |
               (static_cast<u32>(p[2]) << 16) | (static_cast<u32>(p[3]) << 24);
    }

    void check_bound() const {
        if (buffered_bytes() < 4) return;
        const u32 len = peek_len();
        if (len > max_frame_)
            net_fail(NetErrorCode::frame_too_large,
                     "inbound frame announces " + std::to_string(len) +
                         " bytes, cap is " + std::to_string(max_frame_));
    }

    u32 max_frame_;
    std::vector<u8> buf_;
    std::size_t head_ = 0;  ///< offset of the first unread byte in buf_
};

}  // namespace recoil::net
