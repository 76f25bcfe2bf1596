#include "sim/memory.hh"

#include <algorithm>
#include <cstring>

#include "util/logging.hh"

namespace tea::sim {

void
Memory::mapRange(uint64_t base, uint64_t size)
{
    uint64_t first = base >> kPageBits;
    uint64_t last = (base + size - 1) >> kPageBits;
    for (uint64_t p = first; p <= last; ++p) {
        auto &page = pages_[p];
        if (!page)
            page = std::make_unique<std::vector<uint8_t>>(kPageSize, 0);
    }
}

bool
Memory::isMapped(uint64_t addr, unsigned size) const
{
    uint64_t first = addr >> kPageBits;
    uint64_t last = (addr + size - 1) >> kPageBits;
    for (uint64_t p = first; p <= last; ++p)
        if (!pages_.count(p))
            return false;
    return true;
}

uint8_t *
Memory::pageFor(uint64_t addr)
{
    auto it = pages_.find(addr >> kPageBits);
    panic_if(it == pages_.end(), "unchecked access to unmapped 0x%llx",
             static_cast<unsigned long long>(addr));
    return it->second->data();
}

const uint8_t *
Memory::pageFor(uint64_t addr) const
{
    auto it = pages_.find(addr >> kPageBits);
    panic_if(it == pages_.end(), "unchecked access to unmapped 0x%llx",
             static_cast<unsigned long long>(addr));
    return it->second->data();
}

uint64_t
Memory::read(uint64_t addr, unsigned size) const
{
    // Aligned accesses (the common case — the simulators trap
    // misalignment first) stay within one page; unchecked callers may
    // straddle, so fall back to a byte loop rather than run a memcpy
    // off the end of a page.
    uint64_t off = addr & (kPageSize - 1);
    uint64_t v = 0;
    if (off + size <= kPageSize) {
        std::memcpy(&v, pageFor(addr) + off, size);
    } else {
        for (unsigned i = 0; i < size; ++i)
            v |= static_cast<uint64_t>(
                     pageFor(addr + i)[(addr + i) & (kPageSize - 1)])
                 << (8 * i);
    }
    return v;
}

void
Memory::write(uint64_t addr, unsigned size, uint64_t value)
{
    uint64_t off = addr & (kPageSize - 1);
    if (off + size <= kPageSize) {
        std::memcpy(pageFor(addr) + off, &value, size);
    } else {
        for (unsigned i = 0; i < size; ++i)
            pageFor(addr + i)[(addr + i) & (kPageSize - 1)] =
                static_cast<uint8_t>(value >> (8 * i));
    }
}

std::vector<uint8_t>
Memory::readBlock(uint64_t addr, uint64_t len) const
{
    std::vector<uint8_t> out(len, 0);
    for (uint64_t i = 0; i < len; ++i) {
        uint64_t a = addr + i;
        auto it = pages_.find(a >> kPageBits);
        if (it != pages_.end())
            out[i] = (*it->second)[a & (kPageSize - 1)];
    }
    return out;
}

void
Memory::loadProgram(const isa::Program &prog)
{
    for (const auto &seg : prog.data) {
        mapRange(seg.addr, seg.bytes.size());
        // One page lookup and one memcpy per page the segment touches.
        for (uint64_t done = 0; done < seg.bytes.size();) {
            uint64_t addr = seg.addr + done;
            uint64_t off = addr & (kPageSize - 1);
            uint64_t n = std::min<uint64_t>(kPageSize - off,
                                            seg.bytes.size() - done);
            std::memcpy(pageFor(addr) + off, seg.bytes.data() + done, n);
            done += n;
        }
    }
    mapRange(isa::kStackTop - isa::kStackSize, isa::kStackSize);
}

} // namespace tea::sim
