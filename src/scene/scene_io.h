/**
 * @file
 * Binary serialization of Gaussian clouds: .gsc v1 and the chunked,
 * compressed v2 container.
 *
 * v1 (magic "GSC1") is the flat format earlier PRs cached scenes in:
 * 16-byte header (magic, u32 name length, u64 count), the UTF-8 name,
 * then count records of 59 little-endian fp32 values in the canonical
 * parameter order (mean, scale, quat, opacity, sh).  v1 files keep
 * loading forever; loadCloud() negotiates the version from the magic.
 *
 * v2 (magic "GSC2") is the scene-scale container behind src/lod/:
 *
 *   header   magic "GSC2", u32 version, u32 flags (bit0 = quantized),
 *            u32 name_len, u64 total_count, u64 footer_offset,
 *            u32 proxy_levels, u32 chunk_count, name bytes
 *   payload  leaf chunks back to back (independently decodable)
 *   footer   magic "GSCF", u32 chunk_count (cross-checked against the
 *            header), then per chunk: f32 aabb[6], u64 payload offset,
 *            u64 count, and for each proxy level 1..proxy_levels a
 *            u32 count + that many proxy records
 *
 * All offsets are relative to the header start, so a v2 image can be
 * embedded at any stream position.  Every record carries the source
 * index of its Gaussian, so a full decode reassembles the original
 * cloud order exactly — loading a v2 file with LOD disabled yields
 * the same cloud a v1 file of the same (encoded) data would.
 *
 * Quantized records (flags bit0) compress 236 fp32 bytes to 118:
 *  - positions: chunk-AABB-normalized UnitFixed (Q1.15, int16/axis);
 *    worst-case error is half_extent * 2^-15 per axis
 *  - scales: log-quantized u16 over ln s in [-14, 6]
 *    (relative step ~3.1e-4)
 *  - rotation: normalized quaternion components as UnitFixed int16
 *  - opacity: log-quantized u16 over ln a in [ln 1e-4, 0]
 *  - SH: IEEE fp16 (round-to-nearest-even, saturating)
 * Unquantized v2 files (flags bit0 clear) store raw fp32 records and
 * decode bit-identically to their source cloud.
 */

#ifndef GCC3D_SCENE_SCENE_IO_H
#define GCC3D_SCENE_SCENE_IO_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "scene/gaussian_cloud.h"
#include "scene/scene_generator.h"

namespace gcc3d {

/** Write @p cloud to @p os in .gsc v1 format. @return false on I/O error. */
bool saveCloud(const GaussianCloud &cloud, std::ostream &os);

/** Write @p cloud to @p path (v1). @return false on I/O error. */
bool saveCloudFile(const GaussianCloud &cloud, const std::string &path);

/**
 * Read a cloud from @p is; the format version is negotiated from the
 * magic ("GSC1" flat, "GSC2" chunked).  A v2 file decodes every leaf
 * chunk and reassembles the original Gaussian order (the LOD-off
 * path).
 * @throws std::runtime_error on malformed input.
 */
GaussianCloud loadCloud(std::istream &is);

/** Read a cloud (v1 or v2) from @p path. @throws std::runtime_error. */
GaussianCloud loadCloudFile(const std::string &path);

/** @return true when @p path starts with the v2 magic. */
bool isGscV2File(const std::string &path);

/** Options for writing .gsc v2 images. */
struct GscV2Options
{
    /** Quantized records (118 B) vs raw fp32 records (236 B). */
    bool quantize = true;

    /**
     * Leaf chunk granularity for saveCloudV2's sequential chunking.
     * The LOD builder partitions spatially instead and drives
     * GscV2Writer directly.
     */
    std::size_t chunk_target = 4096;
};

/**
 * One leaf chunk ready for writing: the member Gaussians, their
 * indices in the source cloud, the AABB of their means (the
 * quantization frame) and, optionally, the per-level proxy pyramid
 * the LOD builder merged for this chunk.
 */
struct GscChunkDraft
{
    Vec3 lo, hi;
    std::vector<std::uint32_t> indices;
    std::vector<Gaussian> gaussians;
    /** proxies[l] holds level l+1; missing levels are written empty. */
    std::vector<std::vector<Gaussian>> proxies;
};

/**
 * Streaming v2 writer: construct on a seekable stream, feed chunks,
 * then finish().  Chunks are written as they arrive (nothing but the
 * directory is buffered), so scenes far larger than RAM can be
 * written by generating and encoding one chunk at a time.
 */
class GscV2Writer
{
  public:
    GscV2Writer(std::ostream &os, std::string name, int proxy_levels,
                bool quantize);
    ~GscV2Writer();  // out of line: DirEntry is incomplete here

    /** Append one leaf chunk (+ its proxy pyramid). @return stream ok. */
    bool writeChunk(const GscChunkDraft &chunk);

    /** Write the footer and patch the header. @return stream ok. */
    bool finish();

  private:
    struct DirEntry;

    std::ostream &os_;
    std::uint64_t base_ = 0;
    std::uint64_t total_ = 0;
    int proxy_levels_;
    bool quantize_;
    bool finished_ = false;
    std::vector<DirEntry> dir_;
    std::vector<std::vector<std::vector<Gaussian>>> proxies_;
};

/** Parsed v2 chunk directory entry (proxies decoded, leaves on disk). */
struct GscV2ChunkInfo
{
    Vec3 lo, hi;
    std::uint64_t offset = 0;  ///< leaf payload offset from header start
    std::uint64_t count = 0;   ///< leaf Gaussians in the chunk
    std::vector<std::vector<Gaussian>> proxies;  ///< levels 1..proxyLevels
};

/**
 * v2 metadata reader: parses and validates the header and footer
 * (including every chunk's proxy pyramid — the always-resident part)
 * and decodes leaf chunks on demand in two steps: readChunk (seek and
 * one read) and decodeChunk (pure, in memory).  Throws
 * std::runtime_error with a descriptive message on any malformed
 * input: bad magic or version, oversized header fields, truncated
 * header/footer/chunk, chunk counts that disagree between header and
 * footer, payloads that escape the payload region, and leaf indices
 * that do not form a permutation of [0, totalCount).
 */
class GscV2Reader
{
  public:
    /** Parse header + footer from @p is (leaf payloads stay unread). */
    explicit GscV2Reader(std::istream &is);

    const std::string &name() const { return name_; }
    bool quantized() const { return quantized_; }
    std::uint64_t totalCount() const { return total_; }
    int proxyLevels() const { return proxy_levels_; }
    std::size_t chunkCount() const { return chunks_.size(); }
    const GscV2ChunkInfo &chunk(std::size_t i) const { return chunks_[i]; }

    /**
     * Read leaf chunk @p i's payload (count x record bytes) from @p is
     * (a stream over the same bytes this reader parsed) with one
     * bounds-checked read.  The only step that touches the stream.
     * @throws std::runtime_error on truncation.
     */
    void readChunk(std::istream &is, std::size_t i,
                   std::vector<unsigned char> &payload) const;

    /**
     * Decode a readChunk(@p i) payload in memory: @p out receives the
     * Gaussians, @p indices their positions in the source cloud.
     * Touches no shared state, so concurrent decodes need no lock.
     * @throws std::runtime_error on a payload of the wrong size or a
     *         leaf index out of range.
     */
    void decodeChunk(std::size_t i, const std::vector<unsigned char> &payload,
                     std::vector<Gaussian> &out,
                     std::vector<std::uint32_t> &indices) const;

  private:
    std::uint64_t base_ = 0;
    std::string name_;
    bool quantized_ = false;
    std::uint64_t total_ = 0;
    int proxy_levels_ = 0;
    std::vector<GscV2ChunkInfo> chunks_;
};

/**
 * Write @p cloud as a v2 image with sequential chunking and no proxy
 * levels (the plain compressed-container use; LOD files come from
 * src/lod/lod_builder).  @return false on I/O error.
 */
bool saveCloudV2(const GaussianCloud &cloud, std::ostream &os,
                 const GscV2Options &options = {});

/** saveCloudV2 to @p path. @return false on I/O error. */
bool saveCloudV2File(const GaussianCloud &cloud, const std::string &path,
                     const GscV2Options &options = {});

/**
 * Cache file path of (spec, scale) under @p dir:
 * `<sceneGenKey>.gsc`, i.e. the scene name, seed, exact scaled count
 * and a digest of every generation-determining spec field — so one
 * directory safely caches every (scene, scale) combination side by
 * side and stale files from edited specs simply miss.
 */
std::string sceneCachePath(const std::string &dir, const SceneSpec &spec,
                           float scale);

/**
 * generateScene with a .gsc cache in front: when @p cache_dir holds a
 * valid cache file for (spec, scale) it is loaded instead of
 * generating; otherwise the scene is generated and written back
 * (best-effort — an unwritable cache never fails the call).  A stale,
 * truncated or foreign cache file is regenerated and overwritten, so
 * a corrupt cache can only cost time, never correctness.  An empty
 * @p cache_dir is a plain generateScene.
 */
GaussianCloud loadOrGenerateScene(const SceneSpec &spec, float scale,
                                  const std::string &cache_dir);

} // namespace gcc3d

#endif // GCC3D_SCENE_SCENE_IO_H
