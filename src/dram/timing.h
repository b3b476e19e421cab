#ifndef LOCALUT_DRAM_TIMING_H_
#define LOCALUT_DRAM_TIMING_H_

/**
 * @file
 * DRAM bank timing parameters and a per-bank command-legality state machine
 * (Ramulator-style, reduced to the parameters that matter at bank level).
 * Used directly by the bank-level PIM study (paper Section VI-K) and to
 * derive/justify the UPMEM DMA bandwidth constants.
 */

#include <cstdint>

namespace localut {

/** Timing parameters in DRAM-core clock cycles (except tCkNs). */
struct DramTimingParams {
    double tCkNs = 0.833;    ///< core clock period
    unsigned tRCD = 16;      ///< ACT -> RD/WR
    unsigned tRP = 16;       ///< PRE -> ACT
    unsigned tCL = 16;       ///< RD -> first data
    unsigned tRAS = 39;      ///< ACT -> PRE
    unsigned tCCD = 4;       ///< RD -> RD (same bank group)
    unsigned tWR = 18;       ///< end of write burst -> PRE
    unsigned burstCycles = 4;   ///< data transfer cycles per burst
    unsigned burstBytes = 32;   ///< bytes per burst per bank
    unsigned rowBytes = 1024;   ///< page size per bank
    unsigned banksPerChannel = 16;

    /** DDR4-2400-class device as found on UPMEM DIMMs. */
    static DramTimingParams upmemDdr4();

    /** HBM2 pseudo-channel bank (for the HBM-PIM comparison). */
    static DramTimingParams hbm2();
};

/** Per-event DRAM energies (current-profile-derived approximations). */
struct DramEnergyParams {
    double pjPerAct = 909.0;      ///< ACT+PRE pair
    double pjPerRdBurst = 467.0;  ///< one RD burst
    double pjPerWrBurst = 484.0;  ///< one WR burst
    double backgroundMwPerBank = 6.0;

    static DramEnergyParams ddr4();
    static DramEnergyParams hbm2();
};

/** DRAM command set modeled at bank level. */
enum class DramCommand { Act, Pre, Rd, Wr };

/**
 * Sustained bytes/s one bank streams in sequential bursts: a full row of
 * bursts at the column-command rate, with the PRE+ACT row turnaround
 * amortized over the row.  This closed form bounds the per-rank drain
 * rate of a sharded all-gather (serving/sharding.h), where every rank
 * streams its output slice out of its banks before the host link hop.
 */
double bankStreamBytesPerSec(const DramTimingParams& t);

/** Time/energy of draining bytes out of a rank's DRAM banks. */
struct CollectiveCost {
    double seconds = 0;
    double joules = 0;
};

/**
 * Cost for @p banks banks of one rank to stream @p bytes (total across
 * the banks) in sequential bursts: time is the per-bank stream rate
 * aggregated over the banks; energy charges one RD burst per burstBytes
 * and one ACT+PRE pair per rowBytes.
 */
CollectiveCost collectiveDrainCost(const DramTimingParams& t,
                                   const DramEnergyParams& e,
                                   unsigned banks, double bytes);

/**
 * The link a collective hop crosses: the PIM<->host DMA link behind
 * the ranks of one host.
 */
struct LinkTierParams {
    double gbPerSec = 12.0;       ///< sustained link rate (GB/s)
    double launchLatencyUs = 10.0; ///< fixed per-collective launch latency
    double pjPerByte = 150.0;     ///< transfer energy per byte crossing
};

/**
 * The rank -> host hop of a collective: every rank drains its slice out
 * of its DRAM banks while the host link moves the aggregate.
 *
 * Drain and link pacing overlap (the link streams while banks drain),
 * so the hop's time is the launch latency plus the max of the two;
 * energy is additive (every drained byte and every link byte pays).
 */
struct CollectiveHop {
    unsigned drainBanks = 0;        ///< banks per draining rank (0 = no drain)
    double perSourceDrainBytes = 0; ///< largest single rank's drain (paces time)
    double totalBytes = 0;          ///< all ranks' bytes: drained and linked
};

/**
 * Time/energy of the collective hop over @p tier:
 * `launch + max(perSourceDrain, totalBytes/rate)` seconds; drain plus
 * link energy on totalBytes (golden-pinned in test_golden_costs).
 */
CollectiveCost collectiveHopCost(const DramTimingParams& t,
                                 const DramEnergyParams& e,
                                 const CollectiveHop& hop,
                                 const LinkTierParams& tier);

/**
 * Capped exponential backoff interval before retry number @p attempt
 * (0-based): `min(baseSeconds * 2^attempt, capSeconds)`.  Virtual-time
 * seconds charged into a TimingReport; never a wall-clock sleep.
 */
double retryBackoffSeconds(double baseSeconds, double capSeconds,
                           unsigned attempt);

/**
 * Single-bank command scheduler: accepts commands at the earliest legal
 * cycle and tracks activation/read/write counts for the energy model.
 *
 * The caller owns global time; issue() returns the cycle at which the
 * command actually issued (>= the requested cycle).
 */
class DramBank
{
  public:
    explicit DramBank(const DramTimingParams& timing);

    /** Issues @p cmd no earlier than @p earliest; returns the issue cycle. */
    std::uint64_t issue(DramCommand cmd, std::uint32_t row,
                        std::uint64_t earliest);

    /**
     * Convenience: opens @p row if needed (PRE+ACT) and issues a RD burst.
     * Returns the cycle at which the burst's data has fully transferred.
     */
    std::uint64_t readBurst(std::uint32_t row, std::uint64_t earliest);

    /** Same for a WR burst; returns the cycle the write burst completes. */
    std::uint64_t writeBurst(std::uint32_t row, std::uint64_t earliest);

    bool rowOpen() const { return rowOpen_; }
    std::uint32_t openRow() const { return openRow_; }

    std::uint64_t activations() const { return activations_; }
    std::uint64_t reads() const { return reads_; }
    std::uint64_t writes() const { return writes_; }

    /** Energy (J) for the activity so far plus background over @p cycles. */
    double energyJoules(const DramEnergyParams& e,
                        std::uint64_t elapsedCycles) const;

  private:
    DramTimingParams timing_;
    bool rowOpen_ = false;
    std::uint32_t openRow_ = 0;

    std::uint64_t lastAct_ = 0;
    std::uint64_t lastPre_ = 0;
    std::uint64_t lastRdIssue_ = 0;
    std::uint64_t lastWrEnd_ = 0;
    bool anyAct_ = false;

    std::uint64_t activations_ = 0;
    std::uint64_t reads_ = 0;
    std::uint64_t writes_ = 0;
};

} // namespace localut

#endif // LOCALUT_DRAM_TIMING_H_
