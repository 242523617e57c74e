#include "scene/scene_io.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "gsmath/fixed_point.h"
#include "gsmath/half.h"
#include "obs/fault_hooks.h"
#include "obs/metrics_registry.h"
#include "obs/perf_recorder.h"

namespace gcc3d {

namespace {

constexpr char kMagicV1[4] = {'G', 'S', 'C', '1'};
constexpr char kMagicV2[4] = {'G', 'S', 'C', '2'};
constexpr char kMagicFooter[4] = {'G', 'S', 'C', 'F'};

constexpr std::uint32_t kV2Version = 2;
constexpr std::uint32_t kFlagQuantized = 1u << 0;
constexpr std::uint32_t kKnownFlags = kFlagQuantized;

/** Fixed-size v2 header bytes before the name. */
constexpr std::uint64_t kV2HeaderBytes = 40;
// Patch offsets within the header (see the layout in scene_io.h).
constexpr std::uint64_t kV2TotalCountOffset = 16;
constexpr std::uint64_t kV2FooterOffsetOffset = 24;
constexpr std::uint64_t kV2ChunkCountOffset = 36;

constexpr std::uint32_t kMaxNameLen = 4096;
constexpr std::uint32_t kMaxChunks = 1u << 22;
constexpr std::uint32_t kMaxProxyLevels = 16;

/** Quantized record body: pos 3xi16, scale 3xu16, quat 4xi16,
 *  opacity u16, sh 48xu16. */
constexpr std::size_t kQuantBodyBytes = 118;
constexpr std::size_t kRawBodyBytes = Gaussian::kTotalFloats * 4;

// Global log-quantization ranges (documented in scene_io.h).
constexpr float kLogScaleMin = -14.0f;
constexpr float kLogScaleMax = 6.0f;
const float kLogOpacityMin = std::log(1e-4f);

std::size_t
bodyBytes(bool quantized)
{
    return quantized ? kQuantBodyBytes : kRawBodyBytes;
}

std::size_t
leafRecordBytes(bool quantized)
{
    return sizeof(std::uint32_t) + bodyBytes(quantized);
}

template <typename T>
void
writePod(std::ostream &os, const T &v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof(T));
}

template <typename T>
void
readPod(std::istream &is, T &v, const char *what)
{
    is.read(reinterpret_cast<char *>(&v), sizeof(T));
    if (!is)
        throw std::runtime_error(std::string("scene_io: truncated ") + what);
}

std::uint16_t
logQuant(float v, float lo, float hi)
{
    float x = std::log(std::max(v, std::numeric_limits<float>::min()));
    x = std::clamp(x, lo, hi);
    float t = (x - lo) / (hi - lo) * 65535.0f;
    return static_cast<std::uint16_t>(std::lround(t));
}

float
logDequant(std::uint16_t q, float lo, float hi)
{
    return std::exp(lo + static_cast<float>(q) * (hi - lo) / 65535.0f);
}

std::int16_t
unitQuant(float t)
{
    return static_cast<std::int16_t>(UnitFixed::fromFloat(t).raw());
}

float
unitDequant(std::int16_t raw)
{
    return UnitFixed::fromRaw(raw).toFloat();
}

/** Quantization frame of a chunk: centers/half-extents of its AABB. */
struct ChunkFrame
{
    Vec3 center;
    Vec3 half;

    explicit ChunkFrame(const Vec3 &lo, const Vec3 &hi)
    {
        center = (lo + hi) * 0.5f;
        // A degenerate axis (single point) still needs a non-zero
        // scale for the normalized mapping.
        half = Vec3(std::max(0.5f * (hi.x - lo.x), 1e-6f),
                    std::max(0.5f * (hi.y - lo.y), 1e-6f),
                    std::max(0.5f * (hi.z - lo.z), 1e-6f));
    }
};

void
encodeBody(const Gaussian &g, bool quantized, const ChunkFrame &frame,
           std::ostream &os)
{
    if (!quantized) {
        float rec[Gaussian::kTotalFloats];
        rec[0] = g.mean.x;
        rec[1] = g.mean.y;
        rec[2] = g.mean.z;
        rec[3] = g.scale.x;
        rec[4] = g.scale.y;
        rec[5] = g.scale.z;
        rec[6] = g.rotation.w;
        rec[7] = g.rotation.x;
        rec[8] = g.rotation.y;
        rec[9] = g.rotation.z;
        rec[10] = g.opacity;
        std::memcpy(rec + 11, g.sh.data(), sizeof(float) * kShCoeffsTotal);
        os.write(reinterpret_cast<const char *>(rec), sizeof(rec));
        return;
    }

    unsigned char buf[kQuantBodyBytes];
    std::size_t at = 0;
    auto put16 = [&](std::uint16_t v) {
        std::memcpy(buf + at, &v, 2);
        at += 2;
    };
    put16(static_cast<std::uint16_t>(
        unitQuant((g.mean.x - frame.center.x) / frame.half.x)));
    put16(static_cast<std::uint16_t>(
        unitQuant((g.mean.y - frame.center.y) / frame.half.y)));
    put16(static_cast<std::uint16_t>(
        unitQuant((g.mean.z - frame.center.z) / frame.half.z)));
    put16(logQuant(g.scale.x, kLogScaleMin, kLogScaleMax));
    put16(logQuant(g.scale.y, kLogScaleMin, kLogScaleMax));
    put16(logQuant(g.scale.z, kLogScaleMin, kLogScaleMax));
    Quat q = g.rotation.normalized();
    put16(static_cast<std::uint16_t>(unitQuant(q.w)));
    put16(static_cast<std::uint16_t>(unitQuant(q.x)));
    put16(static_cast<std::uint16_t>(unitQuant(q.y)));
    put16(static_cast<std::uint16_t>(unitQuant(q.z)));
    put16(logQuant(g.opacity, kLogOpacityMin, 0.0f));
    for (std::size_t i = 0; i < kShCoeffsTotal; ++i)
        put16(floatToHalf(g.sh[i]));
    os.write(reinterpret_cast<const char *>(buf), sizeof(buf));
}

/**
 * Decode one record body: the bodyBytes(@p quantized) bytes at @p p.
 * The one decoder behind leaf chunks, footer proxies and loadCloud.
 */
void
decodeBody(const unsigned char *p, bool quantized, const ChunkFrame &frame,
           Gaussian &g)
{
    if (!quantized) {
        float rec[Gaussian::kTotalFloats];
        std::memcpy(rec, p, sizeof(rec));
        g.mean = Vec3(rec[0], rec[1], rec[2]);
        g.scale = Vec3(rec[3], rec[4], rec[5]);
        g.rotation = Quat(rec[6], rec[7], rec[8], rec[9]);
        g.opacity = rec[10];
        std::memcpy(g.sh.data(), rec + 11, sizeof(float) * kShCoeffsTotal);
        return;
    }

    // Every quantized field is 16 bits wide (layout in encodeBody).
    std::uint16_t q[kQuantBodyBytes / 2];
    std::memcpy(q, p, sizeof(q));
    auto unit = [&q](int i) {
        return unitDequant(static_cast<std::int16_t>(q[i]));
    };
    g.mean = Vec3(frame.center.x + frame.half.x * unit(0),
                  frame.center.y + frame.half.y * unit(1),
                  frame.center.z + frame.half.z * unit(2));
    g.scale = Vec3(logDequant(q[3], kLogScaleMin, kLogScaleMax),
                   logDequant(q[4], kLogScaleMin, kLogScaleMax),
                   logDequant(q[5], kLogScaleMin, kLogScaleMax));
    g.rotation = Quat(unit(6), unit(7), unit(8), unit(9)).normalized();
    g.opacity = logDequant(q[10], kLogOpacityMin, 0.0f);
    static_assert(kShCoeffsTotal % 8 == 0);
    for (std::size_t i = 0; i < kShCoeffsTotal; i += 8)
        simd::halfToFloat8(q + 11 + i, g.sh.data() + i);
}

/**
 * Read exactly @p bytes from @p is into @p buf with one read.
 * @throws std::runtime_error ("truncated <what>") on a short read.
 */
void
readBytes(std::istream &is, std::vector<unsigned char> &buf,
          std::uint64_t bytes, const char *what)
{
    buf.resize(static_cast<std::size_t>(bytes));
    is.read(reinterpret_cast<char *>(buf.data()),
            static_cast<std::streamsize>(bytes));
    if (!is)
        throw std::runtime_error(std::string("scene_io: truncated ") + what);
}

void
packGaussianV1(const Gaussian &g, float *out)
{
    out[0] = g.mean.x;
    out[1] = g.mean.y;
    out[2] = g.mean.z;
    out[3] = g.scale.x;
    out[4] = g.scale.y;
    out[5] = g.scale.z;
    out[6] = g.rotation.w;
    out[7] = g.rotation.x;
    out[8] = g.rotation.y;
    out[9] = g.rotation.z;
    out[10] = g.opacity;
    std::memcpy(out + 11, g.sh.data(), sizeof(float) * kShCoeffsTotal);
}

Gaussian
unpackGaussianV1(const float *in)
{
    Gaussian g;
    g.mean = Vec3(in[0], in[1], in[2]);
    g.scale = Vec3(in[3], in[4], in[5]);
    g.rotation = Quat(in[6], in[7], in[8], in[9]);
    g.opacity = in[10];
    std::memcpy(g.sh.data(), in + 11, sizeof(float) * kShCoeffsTotal);
    return g;
}

/** v1 body loader; @p is is positioned just past the magic. */
GaussianCloud
loadCloudV1Body(std::istream &is)
{
    std::uint32_t name_len = 0;
    std::uint64_t count = 0;
    is.read(reinterpret_cast<char *>(&name_len), sizeof(name_len));
    is.read(reinterpret_cast<char *>(&count), sizeof(count));
    if (!is)
        throw std::runtime_error("scene_io: truncated header");
    if (name_len > kMaxNameLen)
        throw std::runtime_error("scene_io: implausible name length");

    std::string name(name_len, '\0');
    is.read(name.data(), name_len);
    if (!is)
        throw std::runtime_error("scene_io: truncated name");

    GaussianCloud cloud(name);
    // A corrupted count field must surface as "truncated record" a
    // few reads below, not as a std::length_error/bad_alloc from
    // reserving petabytes — cap the hint; the vector grows past it
    // naturally for genuinely large files.
    cloud.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(count, 1u << 20)));
    std::vector<float> rec(Gaussian::kTotalFloats);
    for (std::uint64_t i = 0; i < count; ++i) {
        is.read(reinterpret_cast<char *>(rec.data()),
                static_cast<std::streamsize>(rec.size() * sizeof(float)));
        if (!is)
            throw std::runtime_error("scene_io: truncated record");
        cloud.add(unpackGaussianV1(rec.data()));
    }
    return cloud;
}

/** v2 loader (the LOD-off path); @p is is positioned at the magic. */
GaussianCloud
loadCloudV2Body(std::istream &is)
{
    GscV2Reader reader(is);
    GaussianCloud cloud(reader.name());
    const std::uint64_t total = reader.totalCount();
    cloud.gaussians().resize(static_cast<std::size_t>(total));
    std::vector<bool> seen(static_cast<std::size_t>(total), false);

    std::vector<unsigned char> payload;
    std::vector<Gaussian> chunk;
    std::vector<std::uint32_t> indices;
    for (std::size_t c = 0; c < reader.chunkCount(); ++c) {
        reader.readChunk(is, c, payload);
        reader.decodeChunk(c, payload, chunk, indices);
        for (std::size_t i = 0; i < chunk.size(); ++i) {
            const std::uint32_t at = indices[i];
            if (seen[at])
                throw std::runtime_error(
                    "scene_io: duplicate leaf index in v2 file");
            seen[at] = true;
            cloud.gaussians()[at] = chunk[i];
        }
    }
    // Chunk counts sum to total and indices are unique, so every slot
    // was filled; this is belt and braces for the empty-total case.
    return cloud;
}

} // namespace

bool
saveCloud(const GaussianCloud &cloud, std::ostream &os)
{
    os.write(kMagicV1, sizeof(kMagicV1));
    std::uint32_t name_len =
        static_cast<std::uint32_t>(cloud.name().size());
    std::uint64_t count = cloud.size();
    os.write(reinterpret_cast<const char *>(&name_len), sizeof(name_len));
    os.write(reinterpret_cast<const char *>(&count), sizeof(count));
    os.write(cloud.name().data(), name_len);

    std::vector<float> rec(Gaussian::kTotalFloats);
    for (std::size_t i = 0; i < cloud.size(); ++i) {
        packGaussianV1(cloud[i], rec.data());
        os.write(reinterpret_cast<const char *>(rec.data()),
                 static_cast<std::streamsize>(rec.size() * sizeof(float)));
    }
    return static_cast<bool>(os);
}

bool
saveCloudFile(const GaussianCloud &cloud, const std::string &path)
{
    obs::PerfScope io_scope(obs::Stage::SceneIo);
    obs::MetricsRegistry::global().counter("scene.io.writes").add();
    std::ofstream f(path, std::ios::binary);
    if (!f)
        return false;
    return saveCloud(cloud, f);
}

GaussianCloud
loadCloud(std::istream &is)
{
    const std::istream::pos_type start = is.tellg();
    char magic[4];
    is.read(magic, sizeof(magic));
    if (!is)
        throw std::runtime_error("scene_io: bad magic");
    if (std::memcmp(magic, kMagicV1, sizeof(kMagicV1)) == 0)
        return loadCloudV1Body(is);
    if (std::memcmp(magic, kMagicV2, sizeof(kMagicV2)) == 0) {
        is.seekg(start);
        return loadCloudV2Body(is);
    }
    throw std::runtime_error("scene_io: bad magic");
}

GaussianCloud
loadCloudFile(const std::string &path)
{
    obs::PerfScope io_scope(obs::Stage::SceneIo);
    obs::MetricsRegistry::global().counter("scene.io.reads").add();
    std::ifstream f(path, std::ios::binary);
    if (!f)
        throw std::runtime_error("scene_io: cannot open " + path);
    return loadCloud(f);
}

bool
isGscV2File(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    char magic[4];
    f.read(magic, sizeof(magic));
    return f && std::memcmp(magic, kMagicV2, sizeof(kMagicV2)) == 0;
}

// ---- GscV2Writer ----

struct GscV2Writer::DirEntry
{
    Vec3 lo, hi;
    std::uint64_t offset = 0;
    std::uint64_t count = 0;
};

GscV2Writer::~GscV2Writer() = default;

GscV2Writer::GscV2Writer(std::ostream &os, std::string name,
                         int proxy_levels, bool quantize)
    : os_(os), proxy_levels_(std::clamp(proxy_levels, 0,
                                        static_cast<int>(kMaxProxyLevels))),
      quantize_(quantize)
{
    base_ = static_cast<std::uint64_t>(os_.tellp());
    os_.write(kMagicV2, sizeof(kMagicV2));
    writePod(os_, kV2Version);
    writePod(os_, quantize_ ? kFlagQuantized : 0u);
    writePod(os_, static_cast<std::uint32_t>(name.size()));
    writePod(os_, std::uint64_t{0});  // total_count, patched by finish()
    writePod(os_, std::uint64_t{0});  // footer_offset, patched
    writePod(os_, static_cast<std::uint32_t>(proxy_levels_));
    writePod(os_, std::uint32_t{0});  // chunk_count, patched
    os_.write(name.data(), static_cast<std::streamsize>(name.size()));
}

bool
GscV2Writer::writeChunk(const GscChunkDraft &chunk)
{
    DirEntry entry;
    entry.lo = chunk.lo;
    entry.hi = chunk.hi;
    entry.offset = static_cast<std::uint64_t>(os_.tellp()) - base_;
    entry.count = chunk.gaussians.size();

    const ChunkFrame frame(chunk.lo, chunk.hi);
    for (std::size_t i = 0; i < chunk.gaussians.size(); ++i) {
        writePod(os_, chunk.indices[i]);
        encodeBody(chunk.gaussians[i], quantize_, frame, os_);
    }
    total_ += chunk.gaussians.size();
    dir_.push_back(entry);

    // Proxy records are footer data (always-resident at load time),
    // so they are buffered until finish(); at the builder's default
    // 64:1 base ratio the whole pyramid is ~2% of the scene.
    std::vector<std::vector<Gaussian>> levels = chunk.proxies;
    levels.resize(static_cast<std::size_t>(proxy_levels_));
    proxies_.push_back(std::move(levels));
    return static_cast<bool>(os_);
}

bool
GscV2Writer::finish()
{
    if (finished_)
        return static_cast<bool>(os_);
    finished_ = true;

    const std::uint64_t footer_offset =
        static_cast<std::uint64_t>(os_.tellp()) - base_;
    os_.write(kMagicFooter, sizeof(kMagicFooter));
    writePod(os_, static_cast<std::uint32_t>(dir_.size()));
    for (std::size_t c = 0; c < dir_.size(); ++c) {
        const DirEntry &entry = dir_[c];
        writePod(os_, entry.lo.x);
        writePod(os_, entry.lo.y);
        writePod(os_, entry.lo.z);
        writePod(os_, entry.hi.x);
        writePod(os_, entry.hi.y);
        writePod(os_, entry.hi.z);
        writePod(os_, entry.offset);
        writePod(os_, entry.count);
        const ChunkFrame frame(entry.lo, entry.hi);
        for (const std::vector<Gaussian> &level : proxies_[c]) {
            writePod(os_, static_cast<std::uint32_t>(level.size()));
            for (const Gaussian &g : level)
                encodeBody(g, quantize_, frame, os_);
        }
    }

    os_.seekp(static_cast<std::streamoff>(base_ + kV2TotalCountOffset));
    writePod(os_, total_);
    os_.seekp(static_cast<std::streamoff>(base_ + kV2FooterOffsetOffset));
    writePod(os_, footer_offset);
    os_.seekp(static_cast<std::streamoff>(base_ + kV2ChunkCountOffset));
    writePod(os_, static_cast<std::uint32_t>(dir_.size()));
    os_.seekp(0, std::ios::end);
    return static_cast<bool>(os_);
}

// ---- GscV2Reader ----

GscV2Reader::GscV2Reader(std::istream &is)
{
    base_ = static_cast<std::uint64_t>(is.tellg());

    char magic[4];
    is.read(magic, sizeof(magic));
    if (!is || std::memcmp(magic, kMagicV2, sizeof(kMagicV2)) != 0)
        throw std::runtime_error("scene_io: bad v2 magic");
    std::uint32_t version = 0, flags = 0, name_len = 0, proxy_levels = 0,
                  chunk_count = 0;
    std::uint64_t footer_offset = 0;
    readPod(is, version, "header");
    readPod(is, flags, "header");
    readPod(is, name_len, "header");
    readPod(is, total_, "header");
    readPod(is, footer_offset, "header");
    readPod(is, proxy_levels, "header");
    readPod(is, chunk_count, "header");
    if (version != kV2Version)
        throw std::runtime_error("scene_io: unsupported v2 version");
    if ((flags & ~kKnownFlags) != 0)
        throw std::runtime_error("scene_io: unknown v2 flags");
    if (name_len > kMaxNameLen)
        throw std::runtime_error("scene_io: implausible name length");
    if (proxy_levels > kMaxProxyLevels)
        throw std::runtime_error("scene_io: implausible proxy level count");
    if (chunk_count > kMaxChunks)
        throw std::runtime_error("scene_io: implausible chunk count");
    quantized_ = (flags & kFlagQuantized) != 0;
    proxy_levels_ = static_cast<int>(proxy_levels);

    name_.resize(name_len);
    is.read(name_.data(), name_len);
    if (!is)
        throw std::runtime_error("scene_io: truncated name");
    const std::uint64_t header_end = kV2HeaderBytes + name_len;

    // The footer must live inside the stream, past the header.
    is.seekg(0, std::ios::end);
    const std::uint64_t stream_end = static_cast<std::uint64_t>(is.tellg());
    if (stream_end < base_)
        throw std::runtime_error("scene_io: truncated v2 stream");
    const std::uint64_t avail = stream_end - base_;
    if (footer_offset < header_end ||
        footer_offset + sizeof(kMagicFooter) + sizeof(std::uint32_t) > avail)
        throw std::runtime_error("scene_io: v2 footer offset out of range");
    is.seekg(static_cast<std::streamoff>(base_ + footer_offset));

    char fmagic[4];
    is.read(fmagic, sizeof(fmagic));
    if (!is || std::memcmp(fmagic, kMagicFooter, sizeof(kMagicFooter)) != 0)
        throw std::runtime_error("scene_io: bad v2 footer magic");
    std::uint32_t fcount = 0;
    readPod(is, fcount, "footer");
    if (fcount != chunk_count)
        throw std::runtime_error(
            "scene_io: v2 chunk count mismatch between header and footer");

    const std::size_t leaf_rec = leafRecordBytes(quantized_);
    const std::size_t body_bytes = bodyBytes(quantized_);
    std::vector<unsigned char> records;
    std::uint64_t leaf_total = 0;
    chunks_.resize(chunk_count);
    for (std::uint32_t c = 0; c < chunk_count; ++c) {
        GscV2ChunkInfo &info = chunks_[c];
        float aabb[6];
        is.read(reinterpret_cast<char *>(aabb), sizeof(aabb));
        if (!is)
            throw std::runtime_error("scene_io: truncated footer");
        for (float v : aabb)
            if (!std::isfinite(v))
                throw std::runtime_error("scene_io: non-finite chunk AABB");
        info.lo = Vec3(aabb[0], aabb[1], aabb[2]);
        info.hi = Vec3(aabb[3], aabb[4], aabb[5]);
        if (info.hi.x < info.lo.x || info.hi.y < info.lo.y ||
            info.hi.z < info.lo.z)
            throw std::runtime_error("scene_io: inverted chunk AABB");
        readPod(is, info.offset, "footer");
        readPod(is, info.count, "footer");
        // Division, not offset + count * record: a crafted count must
        // not wrap the product back into range, since readChunk sizes
        // its one read from it.
        if (info.offset < header_end || info.offset > footer_offset ||
            info.count > total_ ||
            info.count > (footer_offset - info.offset) / leaf_rec)
            throw std::runtime_error(
                "scene_io: v2 chunk payload out of range");
        leaf_total += info.count;

        const ChunkFrame frame(info.lo, info.hi);
        info.proxies.resize(static_cast<std::size_t>(proxy_levels_));
        for (int l = 0; l < proxy_levels_; ++l) {
            std::uint32_t pcount = 0;
            readPod(is, pcount, "footer");
            // Checked against the bytes left before allocating, so a
            // corrupt count fails as truncation, not as a huge buffer.
            const std::uint64_t bytes = pcount * body_bytes;
            if (pcount > kMaxChunks ||
                bytes > avail - (static_cast<std::uint64_t>(is.tellg()) -
                                 base_))
                throw std::runtime_error(
                    "scene_io: v2 proxy records out of range");
            readBytes(is, records, bytes, "footer");
            std::vector<Gaussian> &level = info.proxies[l];
            level.resize(pcount);
            for (std::uint32_t k = 0; k < pcount; ++k)
                decodeBody(records.data() + k * body_bytes, quantized_,
                           frame, level[k]);
        }
    }
    if (leaf_total != total_)
        throw std::runtime_error(
            "scene_io: v2 leaf counts disagree with header total");
}

void
GscV2Reader::readChunk(std::istream &is, std::size_t i,
                       std::vector<unsigned char> &payload) const
{
    const GscV2ChunkInfo &info = chunks_.at(i);
    is.clear();
    is.seekg(static_cast<std::streamoff>(base_ + info.offset));
    // The constructor bounded offset + count * record inside the
    // payload region, so the size is sane even for a corrupt file.
    readBytes(is, payload, info.count * leafRecordBytes(quantized_), "chunk");
}

void
GscV2Reader::decodeChunk(std::size_t i,
                         const std::vector<unsigned char> &payload,
                         std::vector<Gaussian> &out,
                         std::vector<std::uint32_t> &indices) const
{
    const GscV2ChunkInfo &info = chunks_.at(i);
    const std::size_t count = static_cast<std::size_t>(info.count);
    const std::size_t record = leafRecordBytes(quantized_);
    if (payload.size() != count * record)
        throw std::runtime_error("scene_io: v2 chunk payload size mismatch");
    const ChunkFrame frame(info.lo, info.hi);
    out.resize(count);
    indices.resize(count);
    const unsigned char *p = payload.data();
    for (std::size_t k = 0; k < count; ++k, p += record) {
        std::uint32_t index = 0;
        std::memcpy(&index, p, sizeof(index));
        if (index >= total_)
            throw std::runtime_error("scene_io: v2 leaf index out of range");
        indices[k] = index;
        decodeBody(p + sizeof(index), quantized_, frame, out[k]);
    }
}

bool
saveCloudV2(const GaussianCloud &cloud, std::ostream &os,
            const GscV2Options &options)
{
    const std::size_t target = std::max<std::size_t>(options.chunk_target, 1);
    GscV2Writer writer(os, cloud.name(), 0, options.quantize);
    for (std::size_t begin = 0; begin < cloud.size(); begin += target) {
        GscChunkDraft chunk;
        const std::size_t end = std::min(begin + target, cloud.size());
        for (std::size_t i = begin; i < end; ++i) {
            const Gaussian &g = cloud[i];
            if (chunk.gaussians.empty()) {
                chunk.lo = chunk.hi = g.mean;
            } else {
                chunk.lo = chunk.lo.cwiseMin(g.mean);
                chunk.hi = chunk.hi.cwiseMax(g.mean);
            }
            chunk.indices.push_back(static_cast<std::uint32_t>(i));
            chunk.gaussians.push_back(g);
        }
        if (!writer.writeChunk(chunk))
            return false;
    }
    return writer.finish();
}

bool
saveCloudV2File(const GaussianCloud &cloud, const std::string &path,
                const GscV2Options &options)
{
    obs::PerfScope io_scope(obs::Stage::SceneIo);
    obs::MetricsRegistry::global().counter("scene.io.writes").add();
    std::ofstream f(path, std::ios::binary);
    if (!f)
        return false;
    return saveCloudV2(cloud, f, options);
}

std::string
sceneCachePath(const std::string &dir, const SceneSpec &spec, float scale)
{
    // The generation key digests every determining spec field, so any
    // spec or scale change lands on a different file (a stale cache
    // misses instead of being silently trusted).
    std::string file = sceneGenKey(spec, scale) + ".gsc";
    return (std::filesystem::path(dir) / file).string();
}

GaussianCloud
loadOrGenerateScene(const SceneSpec &spec, float scale,
                    const std::string &cache_dir)
{
    if (cache_dir.empty())
        return generateScene(spec, scale);

    const std::string path = sceneCachePath(cache_dir, spec, scale);
    std::error_code ec;
    if (std::filesystem::exists(path, ec)) {
        // Stable per-path fault key (FNV-1a); the attempt number is
        // folded in so an injected transient fault clears on retry
        // while a persistent one exhausts the budget deterministically.
        std::uint64_t path_key = 0xcbf29ce484222325ULL;
        for (unsigned char c : path) {
            path_key ^= c;
            path_key *= 0x100000001b3ULL;
        }
        // Bounded retry with exponential backoff: a read racing a
        // concurrent regeneration (or an injected fault) is usually
        // transient; a cache that stays corrupt — including one that
        // turned corrupt between the exists() check and the read, or
        // truncated again after a regeneration — costs the retry
        // budget and then one in-memory generation, never a loop and
        // never the run.
        const obs::RetryPolicy retry;
        for (int attempt = 0; attempt < retry.max_attempts; ++attempt) {
            if (attempt > 0) {
                obs::MetricsRegistry::global()
                    .counter("scene.io.cache_retries")
                    .add();
                std::this_thread::sleep_for(
                    std::chrono::duration<double, std::milli>(
                        retry.delayMs(attempt)));
            }
            try {
                const obs::FaultAction fault = obs::faultAt(
                    obs::FaultSite::SceneRead,
                    path_key + static_cast<std::uint64_t>(attempt));
                if (fault.inject)
                    throw std::runtime_error(
                        fault.magnitude >= 2.0
                            ? "scene_io: cache truncated (injected)"
                            : "scene_io: cache read failed (injected)");
                GaussianCloud cloud = loadCloudFile(path);
                if (cloud.name() == spec.name &&
                    cloud.size() == scaledGaussianCount(spec, scale))
                    return cloud;
                break;  // readable but wrong content: not transient
            } catch (const std::exception &) {
                // Truncated, corrupt or foreign file — whatever the
                // exception type, a bad cache costs a regeneration,
                // never the run.
            }
        }
        obs::MetricsRegistry::global()
            .counter("scene.io.cache_fallbacks")
            .add();
    }

    GaussianCloud cloud = generateScene(spec, scale);
    std::filesystem::create_directories(cache_dir, ec);
    // Publish atomically (temp + rename) so concurrent readers of a
    // shared cache dir only ever see complete files; the PID keeps
    // concurrent writers off each other's temp file.
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    if (saveCloudFile(cloud, tmp))
        std::filesystem::rename(tmp, path, ec);
    std::filesystem::remove(tmp, ec);  // no-op after a clean rename
    return cloud;
}

} // namespace gcc3d
