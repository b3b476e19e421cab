#include "dram/timing.h"

#include <algorithm>

#include "common/logging.h"

namespace localut {

DramTimingParams
DramTimingParams::upmemDdr4()
{
    DramTimingParams t;
    t.tCkNs = 0.833; // DDR4-2400
    t.tRCD = 16;
    t.tRP = 16;
    t.tCL = 16;
    t.tRAS = 39;
    t.tCCD = 4;
    t.tWR = 18;
    t.burstCycles = 4;
    t.burstBytes = 32;
    t.rowBytes = 1024;
    t.banksPerChannel = 16;
    return t;
}

DramTimingParams
DramTimingParams::hbm2()
{
    DramTimingParams t;
    t.tCkNs = 1.0; // 1 GHz core clock (2 Gbps pins)
    t.tRCD = 14;
    t.tRP = 14;
    t.tCL = 14;
    t.tRAS = 34;
    t.tCCD = 2;    // pseudo-channel, BL4
    t.tWR = 16;
    t.burstCycles = 2;
    t.burstBytes = 32; // 256-bit internal PIM datapath per bank
    t.rowBytes = 2048;
    t.banksPerChannel = 16;
    return t;
}

DramEnergyParams
DramEnergyParams::ddr4()
{
    return {};
}

DramEnergyParams
DramEnergyParams::hbm2()
{
    DramEnergyParams e;
    e.pjPerAct = 650.0;
    e.pjPerRdBurst = 250.0; // shorter wires, wide internal bus
    e.pjPerWrBurst = 260.0;
    e.backgroundMwPerBank = 4.0;
    return e;
}

double
bankStreamBytesPerSec(const DramTimingParams& t)
{
    const double burstsPerRow =
        static_cast<double>(t.rowBytes) / t.burstBytes;
    const double burstCycles =
        static_cast<double>(std::max(t.tCCD, t.burstCycles));
    const double rowCycles =
        t.tRP + t.tRCD + burstsPerRow * burstCycles;
    return static_cast<double>(t.rowBytes) / (rowCycles * t.tCkNs * 1e-9);
}

CollectiveCost
collectiveDrainCost(const DramTimingParams& t, const DramEnergyParams& e,
                    unsigned banks, double bytes)
{
    LOCALUT_REQUIRE(banks >= 1 && bytes >= 0,
                    "degenerate collective drain");
    CollectiveCost cost;
    cost.seconds = bytes / (static_cast<double>(banks) *
                            bankStreamBytesPerSec(t));
    const double bursts = bytes / t.burstBytes;
    const double rows = bytes / t.rowBytes;
    cost.joules = (bursts * e.pjPerRdBurst + rows * e.pjPerAct) * 1e-12;
    return cost;
}

CollectiveCost
collectiveHopCost(const DramTimingParams& t, const DramEnergyParams& e,
                  const CollectiveHop& hop, const LinkTierParams& tier)
{
    LOCALUT_REQUIRE(hop.perSourceDrainBytes >= 0 && hop.totalBytes >= 0,
                    "negative collective hop bytes");
    CollectiveCost cost;
    if (hop.totalBytes <= 0)
        return cost;
    CollectiveCost drain;
    if (hop.drainBanks > 0 && hop.perSourceDrainBytes > 0)
        drain = collectiveDrainCost(t, e, hop.drainBanks,
                                    hop.perSourceDrainBytes);
    const double linkSeconds = hop.totalBytes / (tier.gbPerSec * 1e9);
    cost.seconds =
        tier.launchLatencyUs * 1e-6 + std::max(drain.seconds, linkSeconds);
    CollectiveCost drainAll;
    if (hop.drainBanks > 0)
        drainAll = collectiveDrainCost(t, e, hop.drainBanks, hop.totalBytes);
    cost.joules = drainAll.joules + tier.pjPerByte * hop.totalBytes * 1e-12;
    return cost;
}

double
retryBackoffSeconds(double baseSeconds, double capSeconds, unsigned attempt)
{
    LOCALUT_REQUIRE(baseSeconds >= 0 && capSeconds >= 0,
                    "negative retry backoff parameters");
    double interval = baseSeconds;
    for (unsigned i = 0; i < attempt && interval < capSeconds; ++i)
        interval *= 2.0;
    return std::min(interval, capSeconds);
}

DramBank::DramBank(const DramTimingParams& timing) : timing_(timing) {}

std::uint64_t
DramBank::issue(DramCommand cmd, std::uint32_t row, std::uint64_t earliest)
{
    switch (cmd) {
      case DramCommand::Act: {
        LOCALUT_ASSERT(!rowOpen_, "ACT while a row is open");
        const std::uint64_t legal =
            anyAct_ ? std::max(earliest, lastPre_ + timing_.tRP) : earliest;
        lastAct_ = legal;
        anyAct_ = true;
        rowOpen_ = true;
        openRow_ = row;
        ++activations_;
        return legal;
      }
      case DramCommand::Pre: {
        LOCALUT_ASSERT(rowOpen_, "PRE with no open row");
        std::uint64_t legal = std::max(earliest, lastAct_ + timing_.tRAS);
        legal = std::max(legal, lastWrEnd_ + timing_.tWR);
        lastPre_ = legal;
        rowOpen_ = false;
        return legal;
      }
      case DramCommand::Rd: {
        LOCALUT_ASSERT(rowOpen_ && openRow_ == row, "RD to a closed row");
        std::uint64_t legal = std::max(earliest, lastAct_ + timing_.tRCD);
        legal = std::max(legal, lastRdIssue_ + timing_.tCCD);
        lastRdIssue_ = legal;
        ++reads_;
        return legal;
      }
      case DramCommand::Wr: {
        LOCALUT_ASSERT(rowOpen_ && openRow_ == row, "WR to a closed row");
        std::uint64_t legal = std::max(earliest, lastAct_ + timing_.tRCD);
        legal = std::max(legal, lastRdIssue_ + timing_.tCCD);
        lastRdIssue_ = legal; // shares the column-command bus slot
        lastWrEnd_ = legal + timing_.tCL + timing_.burstCycles;
        ++writes_;
        return legal;
      }
    }
    LOCALUT_PANIC("unreachable DRAM command");
}

std::uint64_t
DramBank::readBurst(std::uint32_t row, std::uint64_t earliest)
{
    if (!rowOpen_ || openRow_ != row) {
        std::uint64_t t = earliest;
        if (rowOpen_) {
            t = issue(DramCommand::Pre, openRow_, t);
        }
        t = issue(DramCommand::Act, row, t);
        earliest = t;
    }
    const std::uint64_t rd = issue(DramCommand::Rd, row, earliest);
    return rd + timing_.tCL + timing_.burstCycles;
}

std::uint64_t
DramBank::writeBurst(std::uint32_t row, std::uint64_t earliest)
{
    if (!rowOpen_ || openRow_ != row) {
        std::uint64_t t = earliest;
        if (rowOpen_) {
            t = issue(DramCommand::Pre, openRow_, t);
        }
        t = issue(DramCommand::Act, row, t);
        earliest = t;
    }
    const std::uint64_t wr = issue(DramCommand::Wr, row, earliest);
    return wr + timing_.tCL + timing_.burstCycles;
}

double
DramBank::energyJoules(const DramEnergyParams& e,
                       std::uint64_t elapsedCycles) const
{
    const double dynamicPj = static_cast<double>(activations_) * e.pjPerAct +
                             static_cast<double>(reads_) * e.pjPerRdBurst +
                             static_cast<double>(writes_) * e.pjPerWrBurst;
    const double seconds =
        static_cast<double>(elapsedCycles) * timing_.tCkNs * 1e-9;
    return dynamicPj * 1e-12 + e.backgroundMwPerBank * 1e-3 * seconds;
}

} // namespace localut
