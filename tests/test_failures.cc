/**
 * @file
 * Failure-injection tests: malformed workloads and configurations
 * must die loudly (deadlock detection, unbalanced barriers, releasing
 * an unheld lock, bad config values, malformed trace files) rather
 * than corrupt results.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "fault/plan.hh"
#include "net/factory.hh"
#include "protocol/factory.hh"
#include "sim/abort.hh"
#include "system/experiment.hh"
#include "system/multicore.hh"
#include "workload/trace_file.hh"

namespace lacc {
namespace {

SystemConfig
tinyCfg(std::uint32_t cores = 2)
{
    SystemConfig c;
    c.numCores = cores;
    c.meshWidth = 2;
    c.clusterSize = cores >= 2 ? 2 : 1;
    c.numMemControllers = 2;
    return c;
}

TEST(Failures, UnbalancedBarrierDeadlocks)
{
    // Core 0 barriers; core 1 never does: the run must panic with a
    // deadlock diagnostic instead of hanging or silently finishing.
    std::vector<std::vector<MemOp>> streams(2);
    streams[0] = {MemOp::barrier()};
    streams[1] = {MemOp::compute(5)};
    TraceWorkload wl("bad-barrier", streams, 0);
    Multicore m(tinyCfg());
    EXPECT_DEATH(m.run(wl), "deadlock");
}

TEST(Failures, LockNeverReleasedDeadlocksWaiters)
{
    std::vector<std::vector<MemOp>> streams(2);
    streams[0] = {MemOp::lockAcquire(0), MemOp::compute(5)};
    streams[1] = {MemOp::lockAcquire(0), MemOp::lockRelease(0)};
    TraceWorkload wl("lock-leak", streams, 1);
    Multicore m(tinyCfg());
    EXPECT_DEATH(m.run(wl), "deadlock");
}

TEST(Failures, ReleaseWithoutHoldIsFatal)
{
    std::vector<std::vector<MemOp>> streams(2);
    streams[0] = {MemOp::lockRelease(0)};
    streams[1] = {MemOp::compute(1)};
    TraceWorkload wl("bad-release", streams, 1);
    Multicore m(tinyCfg());
    EXPECT_EXIT(m.run(wl), testing::ExitedWithCode(1),
                "does not hold");
}

TEST(Failures, LockIdOutOfRangeIsFatal)
{
    std::vector<std::vector<MemOp>> streams(2);
    streams[0] = {MemOp::lockAcquire(7)};
    streams[1] = {MemOp::compute(1)};
    TraceWorkload wl("bad-lock-id", streams, 1);
    Multicore m(tinyCfg());
    EXPECT_EXIT(m.run(wl), testing::ExitedWithCode(1), "out of range");
}

TEST(Failures, BadConfigsAreFatal)
{
    SystemConfig c = tinyCfg();
    c.numCores = 3; // not a multiple of meshWidth=2
    EXPECT_EXIT(c.validate(), testing::ExitedWithCode(1), "multiple");

    c = tinyCfg();
    c.lineSize = 48; // not a power of two
    EXPECT_EXIT(c.validate(), testing::ExitedWithCode(1), "power");

    c = tinyCfg();
    c.pct = 0;
    EXPECT_EXIT(c.validate(), testing::ExitedWithCode(1), "PCT");

    c = tinyCfg();
    c.ratMax = 2; // < pct = 4
    EXPECT_EXIT(c.validate(), testing::ExitedWithCode(1), "RATmax");

    c = tinyCfg();
    c.numMemControllers = 64; // > cores
    EXPECT_EXIT(c.validate(), testing::ExitedWithCode(1),
                "numMemControllers");

    c = tinyCfg();
    c.nRatLevels = kMaxRatLevels + 1; // past the 7-bit level field
    EXPECT_EXIT(c.validate(), testing::ExitedWithCode(1), "nRATlevels");
}

TEST(Failures, MalformedTraceIsFatal)
{
    {
        std::istringstream is("0 r ff\n"); // body before header
        EXPECT_EXIT(TraceWorkload::parse(is, "x"),
                    testing::ExitedWithCode(1), "header");
    }
    {
        std::istringstream is("trace 1 0\n9 r ff\n"); // bad core id
        EXPECT_EXIT(TraceWorkload::parse(is, "x"),
                    testing::ExitedWithCode(1), "range");
    }
    {
        std::istringstream is("trace 1 0\n0 q ff\n"); // unknown op
        EXPECT_EXIT(TraceWorkload::parse(is, "x"),
                    testing::ExitedWithCode(1), "unknown op");
    }
    {
        std::istringstream is("trace 1 1\n0 a 5\n"); // lock id range
        EXPECT_EXIT(TraceWorkload::parse(is, "x"),
                    testing::ExitedWithCode(1), "out of range");
    }
    {
        std::istringstream is("trace 1 0\n0 r zz\n"); // bad address
        EXPECT_EXIT(TraceWorkload::parse(is, "x"),
                    testing::ExitedWithCode(1), "bad address");
    }
}

TEST(Failures, PartiallyNumericTraceTokensAreFatal)
{
    {
        // std::stoul would silently read "2x" as core 2.
        std::istringstream is("trace 4 0\n2x r ff\n");
        EXPECT_EXIT(TraceWorkload::parse(is, "x"),
                    testing::ExitedWithCode(1), "bad core id");
    }
    {
        // Negative core ids must not wrap to a huge unsigned value.
        std::istringstream is("trace 4 0\n-1 r ff\n");
        EXPECT_EXIT(TraceWorkload::parse(is, "x"),
                    testing::ExitedWithCode(1), "bad core id");
    }
    {
        // std::stoull would silently read "12zz" as address 0x12.
        std::istringstream is("trace 1 0\n0 w 12zz\n");
        EXPECT_EXIT(TraceWorkload::parse(is, "x"),
                    testing::ExitedWithCode(1), "bad address");
    }
    {
        // Addresses wider than 64 bits must not silently truncate.
        std::istringstream is("trace 1 0\n0 r 12345678123456781\n");
        EXPECT_EXIT(TraceWorkload::parse(is, "x"),
                    testing::ExitedWithCode(1), "bad address");
    }
    {
        std::istringstream is("trace 1 0\n0 c 5five\n");
        EXPECT_EXIT(TraceWorkload::parse(is, "x"),
                    testing::ExitedWithCode(1), "bad cycle count");
    }
    {
        std::istringstream is("trace 1 1\n0 a 1one\n");
        EXPECT_EXIT(TraceWorkload::parse(is, "x"),
                    testing::ExitedWithCode(1), "bad lock id");
    }
}

TEST(Failures, TraceTrailingGarbageIsFatal)
{
    {
        // A forgotten field must not be silently dropped.
        std::istringstream is("trace 2 0\n0 r ff extra\n");
        EXPECT_EXIT(TraceWorkload::parse(is, "x"),
                    testing::ExitedWithCode(1), "trailing garbage");
    }
    {
        std::istringstream is("trace 2 0\n0 b 1\n"); // barrier + junk
        EXPECT_EXIT(TraceWorkload::parse(is, "x"),
                    testing::ExitedWithCode(1), "trailing garbage");
    }
    {
        std::istringstream is("trace 2 0 7\n"); // header + junk
        EXPECT_EXIT(TraceWorkload::parse(is, "x"),
                    testing::ExitedWithCode(1), "trailing garbage");
    }
    {
        std::istringstream is("trace 2 0\ntrace 2 0\n"); // two headers
        EXPECT_EXIT(TraceWorkload::parse(is, "x"),
                    testing::ExitedWithCode(1), "duplicate");
    }
}

TEST(Failures, StrictTraceParserStillAcceptsValidInput)
{
    std::istringstream is("# comment\n"
                          "trace 2 1\n"
                          "0 r 0x1000 # inline comment\n"
                          "0 w 1040\n"
                          "1 f ABC0\n"
                          "0 c 12\n"
                          "1 b # barriers comment too\n"
                          "0 b\n"
                          "1 a 0\n"
                          "1 l 0\n");
    TraceWorkload w = TraceWorkload::parse(is, "ok");
    EXPECT_EQ(w.numCores(), 2u);
    EXPECT_EQ(w.numLocks(), 1u);
    EXPECT_EQ(w.remaining(0), 4u);
    EXPECT_EQ(w.remaining(1), 4u);
    // 0x-prefixed and bare hex parse to the same address width rules.
    const MemOp r = w.next(0);
    EXPECT_EQ(r.kind, MemOp::Kind::Read);
    EXPECT_EQ(r.addr, 0x1000u);
}

TEST(Failures, MissingTraceFileIsFatal)
{
    EXPECT_EXIT(TraceWorkload::load("/nonexistent/path.trace"),
                testing::ExitedWithCode(1), "cannot open");
}

TEST(Failures, NetworkFactoryRoundTripsEveryName)
{
    // applyNetworkName -> networkNameFor -> makeNetwork must agree
    // for every registered topology, and a system must construct and
    // run on each (the harness sweeps rely on this round-trip).
    for (const auto &name : networkNames()) {
        SystemConfig cfg = tinyCfg(4);
        cfg.meshWidth = 2;
        applyNetworkName(cfg, name);
        ASSERT_STREQ(networkNameFor(cfg), name.c_str());
        Multicore m(cfg);
        EXPECT_STREQ(m.network().name(), name.c_str());
    }
}

TEST(Failures, UnknownNetworkNameIsFatal)
{
    SystemConfig cfg = tinyCfg();
    EXPECT_EXIT(applyNetworkName(cfg, "hypercube"),
                testing::ExitedWithCode(1),
                "unknown network 'hypercube'.*mesh.*torus.*ring.*xbar");
}

TEST(Failures, UnknownProtocolNameIsFatal)
{
    SystemConfig cfg = tinyCfg();
    EXPECT_EXIT(applyProtocolName(cfg, "mosi"),
                testing::ExitedWithCode(1),
                "unknown protocol 'mosi'.*lacc.*fullmap");
}

TEST(Failures, UnknownFaultPlanNameIsFatal)
{
    SystemConfig cfg = tinyCfg();
    EXPECT_EXIT(applyFaultName(cfg, "cosmic"),
                testing::ExitedWithCode(1),
                "unknown fault plan 'cosmic'.*none.*links.*soft.*storm");
}

TEST(Failures, RetryBudgetExhaustionAborts)
{
    // At fault rate 1.0 every link traversal faults (the fixed-point
    // threshold saturates), so no message can ever get through: the
    // transport must burn its retry budget and abort the run with a
    // catchable RunAbort, not hang or deliver garbage.
    SystemConfig cfg = tinyCfg(4);
    cfg.meshWidth = 2;
    cfg.faultKind = FaultKind::Links;
    cfg.faultRate = 1.0;
    try {
        runBenchmark("radix", cfg, 0.02);
        FAIL() << "retry budget never exhausted";
    } catch (const RunAbort &a) {
        EXPECT_EQ(a.kind(), AbortKind::FaultFatal);
        EXPECT_STREQ(a.tag(), "fault");
        EXPECT_NE(std::string(a.what()).find("retransmit budget"),
                  std::string::npos)
            << a.what();
    }
}

TEST(Failures, UnrecoverableDoubleBitAborts)
{
    // Soft errors on every directory touch: the double-bit fraction
    // guarantees an unrecoverable state (dirty-line or Modified-line
    // double flip) within a handful of transactions. Detected means
    // abort — never silent continuation.
    SystemConfig cfg = tinyCfg(4);
    cfg.meshWidth = 2;
    cfg.faultKind = FaultKind::Soft;
    cfg.faultRate = 1.0;
    try {
        runBenchmark("radix", cfg, 0.05);
        FAIL() << "unrecoverable double-bit never struck";
    } catch (const RunAbort &a) {
        EXPECT_EQ(a.kind(), AbortKind::FaultFatal);
        EXPECT_STREQ(a.tag(), "fault");
    }
}

TEST(Failures, InvalidFaultRateIsFatal)
{
    SystemConfig cfg = tinyCfg();
    cfg.faultRate = 1.5;
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1),
                "faultRate");
}

} // namespace
} // namespace lacc
