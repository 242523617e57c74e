/**
 * @file
 * On-chip SRAM buffer model (CACTI-P-style analytic estimates).
 *
 * The paper models buffers with CACTI-P at 28 nm; Table 4 publishes
 * per-buffer area and power for the chosen configurations.  This
 * model reproduces those published points exactly and extrapolates
 * area/energy for other capacities (needed by the image-buffer design
 * space exploration of Fig. 13a) with standard sublinear scaling.
 */

#ifndef GCC3D_SIM_SRAM_H
#define GCC3D_SIM_SRAM_H

#include <cstdint>
#include <string>

namespace gcc3d {

/** Static description of one on-chip buffer. */
struct SramConfig
{
    std::string name;
    double capacity_kb = 32.0;     ///< total capacity
    int banks = 1;                 ///< independent banks
    double read_energy_pj = 5.0;   ///< per 32-byte access
    double write_energy_pj = 6.0;  ///< per 32-byte access
    double area_mm2 = 0.1;         ///< silicon area
    double leakage_mw = 0.1;       ///< static power

    /**
     * Scale this buffer description to a new capacity: area grows
     * ~linearly, access energy with sqrt(capacity) (longer bit/word
     * lines), matching CACTI trends at fixed bank count.
     */
    SramConfig scaledTo(double new_kb) const;
};

/** Per-frame access accounting for one buffer. */
class Sram
{
  public:
    explicit Sram(SramConfig config) : config_(std::move(config)) {}

    const SramConfig &config() const { return config_; }

    void read(std::uint64_t bytes) { read_bytes_ += bytes; }
    void write(std::uint64_t bytes) { write_bytes_ += bytes; }

    /** Dynamic access energy in millijoule (32B access granularity). */
    double energyMj() const;

    void reset() { read_bytes_ = write_bytes_ = 0; }

  private:
    SramConfig config_;
    std::uint64_t read_bytes_ = 0;
    std::uint64_t write_bytes_ = 0;
};

} // namespace gcc3d

#endif // GCC3D_SIM_SRAM_H
