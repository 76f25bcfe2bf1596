/**
 * @file
 * sim::Memory edge cases: page-straddling scalar accesses,
 * readBlock over partially-unmapped ranges, and isMapped exactly at
 * page boundaries, and program loading of segments that straddle pages.
 * The simulators themselves only issue aligned
 * (within-page) accesses, but byte-granularity users (program
 * loading, output capture) cross pages freely.
 */

#include <gtest/gtest.h>

#include "sim/memory.hh"
#include "util/rng.hh"

using namespace tea::sim;

namespace {

constexpr uint64_t kPage = Memory::kPageSize;
constexpr uint64_t kBase = 16 * kPage;

} // namespace

TEST(Memory, PageStraddlingReadWrite)
{
    Memory m;
    m.mapRange(kBase, 2 * kPage);

    // An 8-byte write centered on the page boundary: 4 bytes land in
    // each page, and the read must reassemble them little-endian.
    uint64_t boundary = kBase + kPage;
    m.write(boundary - 4, 8, 0x1122334455667788ULL);
    EXPECT_EQ(m.read(boundary - 4, 8), 0x1122334455667788ULL);
    // The per-page halves individually.
    EXPECT_EQ(m.read(boundary - 4, 4), 0x55667788u);
    EXPECT_EQ(m.read(boundary, 4), 0x11223344u);

    // Every straddle width and offset near the boundary.
    for (unsigned size : {2u, 4u, 8u}) {
        for (unsigned back = 1; back < size; ++back) {
            uint64_t addr = boundary - back;
            uint64_t pattern = 0xa5c3f00d600df17eULL &
                               ((size == 8) ? ~0ULL
                                            : ((1ULL << (8 * size)) - 1));
            m.write(addr, size, pattern);
            EXPECT_EQ(m.read(addr, size), pattern)
                << "size " << size << " back " << back;
        }
    }

    // Within-page accesses at both edges still work.
    m.write(kBase, 8, 42);
    EXPECT_EQ(m.read(kBase, 8), 42u);
    m.write(kBase + 2 * kPage - 8, 8, 43);
    EXPECT_EQ(m.read(kBase + 2 * kPage - 8, 8), 43u);
}

TEST(Memory, ReadBlockPartiallyUnmappedReturnsZeros)
{
    Memory m;
    m.mapRange(kBase, kPage); // exactly one page
    for (uint64_t i = 0; i < kPage; ++i)
        m.write(kBase + i, 1, 0xab);

    // A block starting before the mapping and ending after it: the
    // unmapped head and tail read as zero, the mapped middle as data.
    std::vector<uint8_t> blk = m.readBlock(kBase - 8, kPage + 16);
    ASSERT_EQ(blk.size(), kPage + 16);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(blk[i], 0) << "unmapped head byte " << i;
    for (uint64_t i = 8; i < 8 + kPage; ++i)
        ASSERT_EQ(blk[i], 0xab) << "mapped byte " << i;
    for (uint64_t i = 8 + kPage; i < blk.size(); ++i)
        EXPECT_EQ(blk[i], 0) << "unmapped tail byte " << i;

    // A fully-unmapped block is all zeros, not a crash.
    std::vector<uint8_t> cold = m.readBlock(kBase + 64 * kPage, 32);
    for (uint8_t b : cold)
        EXPECT_EQ(b, 0);

    // Zero length is a valid request.
    EXPECT_TRUE(m.readBlock(kBase, 0).empty());
}

TEST(Memory, IsMappedAtPageBoundaries)
{
    Memory m;
    m.mapRange(kBase, 2 * kPage); // pages [16, 18)

    // Whole-range and single-byte probes at the extremes.
    EXPECT_TRUE(m.isMapped(kBase, 2 * kPage));
    EXPECT_TRUE(m.isMapped(kBase, 1));
    EXPECT_TRUE(m.isMapped(kBase + 2 * kPage - 1, 1));
    EXPECT_FALSE(m.isMapped(kBase - 1, 1));
    EXPECT_FALSE(m.isMapped(kBase + 2 * kPage, 1));

    // Ranges that lean one byte over either edge.
    EXPECT_FALSE(m.isMapped(kBase - 1, 2));
    EXPECT_FALSE(m.isMapped(kBase + 2 * kPage - 1, 2));

    // Straddling the interior boundary between two mapped pages.
    EXPECT_TRUE(m.isMapped(kBase + kPage - 4, 8));

    // mapRange at sub-page granularity maps the whole touched pages.
    Memory m2;
    m2.mapRange(kBase + kPage - 1, 2); // touches both pages
    EXPECT_TRUE(m2.isMapped(kBase, kPage));
    EXPECT_TRUE(m2.isMapped(kBase + kPage, kPage));
    EXPECT_FALSE(m2.isMapped(kBase + 2 * kPage, 1));
}

TEST(Memory, LoadProgramMatchesTheByteLoopAcrossPages)
{
    // One segment that starts near the end of a page and spans two
    // more boundaries, and one that fits inside a page.
    tea::Rng rng(5);
    tea::isa::Program prog;
    std::vector<uint8_t> big(2 * kPage + 300), small(40);
    for (uint8_t &b : big)
        b = static_cast<uint8_t>(rng.nextBounded(256));
    for (uint8_t &b : small)
        b = static_cast<uint8_t>(rng.nextBounded(256));
    prog.data.push_back({kBase + kPage - 100, big});
    prog.data.push_back({kBase + 8 * kPage + 16, small});

    Memory loaded;
    loaded.loadProgram(prog);

    // Reference: map each segment and write it one byte at a time.
    Memory byteLoop;
    for (const auto &seg : prog.data) {
        byteLoop.mapRange(seg.addr, seg.bytes.size());
        for (size_t i = 0; i < seg.bytes.size(); ++i)
            byteLoop.write(seg.addr + i, 1, seg.bytes[i]);
    }

    for (const auto &seg : prog.data) {
        // The segment plus the rest of its first and last pages.
        uint64_t lo = seg.addr & ~(kPage - 1);
        uint64_t hi = (seg.addr + seg.bytes.size() + kPage - 1) &
                      ~(kPage - 1);
        EXPECT_EQ(loaded.readBlock(lo, hi - lo),
                  byteLoop.readBlock(lo, hi - lo));
        EXPECT_EQ(loaded.readBlock(seg.addr, seg.bytes.size()),
                  seg.bytes);
        EXPECT_TRUE(loaded.isMapped(lo, static_cast<unsigned>(hi - lo)));
    }
    EXPECT_FALSE(loaded.isMapped(kBase + 4 * kPage, 1));
    EXPECT_TRUE(loaded.isMapped(tea::isa::kStackTop - 8, 8));
}
