// Unit and property tests for the shared PMP semantics (src/pmp): encoding, WARL
// legalization, locking, range decoding, priority, and the access check.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/common/bits.h"
#include "src/common/rng.h"
#include "src/common/state.h"
#include "src/pmp/pmp.h"

namespace vfm {
namespace {

PmpCfg MakeCfg(bool r, bool w, bool x, PmpAddrMode mode, bool locked = false) {
  PmpCfg cfg;
  cfg.r = r;
  cfg.w = w;
  cfg.x = x;
  cfg.a = mode;
  cfg.locked = locked;
  return cfg;
}

TEST(PmpCfgTest, ByteRoundTrip) {
  for (unsigned byte = 0; byte < 256; ++byte) {
    if ((byte & 0x60) != 0) {
      continue;  // reserved bits never materialize in stored cfg
    }
    const PmpCfg cfg = PmpCfg::FromByte(static_cast<uint8_t>(byte));
    EXPECT_EQ(cfg.ToByte(), byte);
  }
}

TEST(PmpCfgTest, Permits) {
  const PmpCfg rw = MakeCfg(true, true, false, PmpAddrMode::kNapot);
  EXPECT_TRUE(rw.Permits(AccessType::kLoad));
  EXPECT_TRUE(rw.Permits(AccessType::kStore));
  EXPECT_FALSE(rw.Permits(AccessType::kFetch));
}

TEST(PmpLegalizeTest, ReservedBitsCleared) {
  EXPECT_EQ(LegalizePmpCfgByte(0, 0xFF), 0x9F);
}

TEST(PmpLegalizeTest, WriteWithoutReadKeepsOld) {
  // W=1, R=0 is reserved: the write is dropped, preserving the previous byte.
  EXPECT_EQ(LegalizePmpCfgByte(0x19, 0x1A), 0x19);
  EXPECT_EQ(LegalizePmpCfgByte(0x00, 0x02), 0x00);
  // W=1 with R=1 is fine.
  EXPECT_EQ(LegalizePmpCfgByte(0x00, 0x03), 0x03);
}

TEST(PmpRangeTest, Napot) {
  // addr = base>>2 | (size/8 - 1): 0x8000_0000 + 64KiB.
  const uint64_t addr = (0x8000'0000 >> 2) | ((0x10000 >> 3) - 1);
  const auto range = DecodePmpRange(MakeCfg(true, false, false, PmpAddrMode::kNapot), addr, 0);
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(range->base, 0x8000'0000u);
  EXPECT_EQ(range->limit, 0x8001'0000u);
}

TEST(PmpRangeTest, Na4) {
  const auto range =
      DecodePmpRange(MakeCfg(true, false, false, PmpAddrMode::kNa4), 0x1000 >> 2, 0);
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(range->base, 0x1000u);
  EXPECT_EQ(range->limit, 0x1004u);
}

TEST(PmpRangeTest, TorUsesPreviousAddr) {
  const auto range = DecodePmpRange(MakeCfg(true, true, true, PmpAddrMode::kTor),
                                    0x2000 >> 2, 0x1000 >> 2);
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(range->base, 0x1000u);
  EXPECT_EQ(range->limit, 0x2000u);
}

TEST(PmpRangeTest, EmptyTorAndOff) {
  EXPECT_FALSE(DecodePmpRange(MakeCfg(true, true, true, PmpAddrMode::kTor), 0x1000 >> 2,
                              0x2000 >> 2)
                   .has_value());
  EXPECT_FALSE(DecodePmpRange(MakeCfg(true, true, true, PmpAddrMode::kOff), 123, 0)
                   .has_value());
}

class PmpBankTest : public ::testing::Test {
 protected:
  PmpBank bank_{8};

  void InstallNapot(unsigned entry, uint64_t base, uint64_t size, bool r, bool w, bool x,
                    bool locked = false) {
    bank_.SetCfg(entry, MakeCfg(r, w, x, PmpAddrMode::kNapot, locked));
    bank_.SetAddr(entry, (base >> 2) | ((size >> 3) - 1));
  }
};

TEST_F(PmpBankTest, NoMatchSemantics) {
  // With entries implemented but none matching: M allowed, S/U denied.
  EXPECT_TRUE(bank_.Check(0x8000'0000, 8, AccessType::kLoad, PrivMode::kMachine));
  EXPECT_FALSE(bank_.Check(0x8000'0000, 8, AccessType::kLoad, PrivMode::kSupervisor));
  EXPECT_FALSE(bank_.Check(0x8000'0000, 8, AccessType::kFetch, PrivMode::kUser));
}

TEST_F(PmpBankTest, PermissionsApplyToSU) {
  InstallNapot(0, 0x8000'0000, 0x1000, true, false, false);
  EXPECT_TRUE(bank_.Check(0x8000'0000, 8, AccessType::kLoad, PrivMode::kSupervisor));
  EXPECT_FALSE(bank_.Check(0x8000'0000, 8, AccessType::kStore, PrivMode::kSupervisor));
  EXPECT_FALSE(bank_.Check(0x8000'0000, 4, AccessType::kFetch, PrivMode::kUser));
}

TEST_F(PmpBankTest, UnlockedDoesNotConstrainMachine) {
  InstallNapot(0, 0x8000'0000, 0x1000, false, false, false);
  EXPECT_TRUE(bank_.Check(0x8000'0000, 8, AccessType::kStore, PrivMode::kMachine));
}

TEST_F(PmpBankTest, LockedConstrainsMachine) {
  InstallNapot(0, 0x8000'0000, 0x1000, true, false, false, /*locked=*/true);
  EXPECT_TRUE(bank_.Check(0x8000'0000, 8, AccessType::kLoad, PrivMode::kMachine));
  EXPECT_FALSE(bank_.Check(0x8000'0000, 8, AccessType::kStore, PrivMode::kMachine));
}

TEST_F(PmpBankTest, PriorityFirstMatchWins) {
  InstallNapot(0, 0x8000'0000, 0x1000, false, false, false);  // deny page
  InstallNapot(1, 0x8000'0000, 0x10000, true, true, true);    // allow region
  EXPECT_FALSE(bank_.Check(0x8000'0800, 8, AccessType::kLoad, PrivMode::kSupervisor));
  EXPECT_TRUE(bank_.Check(0x8000'1800, 8, AccessType::kLoad, PrivMode::kSupervisor));
}

TEST_F(PmpBankTest, PartialMatchDenies) {
  InstallNapot(0, 0x8000'0000, 0x1000, true, true, true);
  // An 8-byte access straddling the region end partially matches: denied, even for M.
  EXPECT_FALSE(bank_.Check(0x8000'0FFC, 8, AccessType::kLoad, PrivMode::kSupervisor));
  EXPECT_FALSE(bank_.Check(0x8000'0FFC, 8, AccessType::kLoad, PrivMode::kMachine));
}

TEST_F(PmpBankTest, CsrAccessorsComposeBytes) {
  bank_.WriteCfgReg(0, 0x0000'0000'0000'1F18ull);
  EXPECT_EQ(bank_.ReadCfgReg(0), 0x1F18u);
  EXPECT_EQ(bank_.GetCfg(0).a, PmpAddrMode::kNapot);
  EXPECT_FALSE(bank_.GetCfg(0).r);
  EXPECT_TRUE(bank_.GetCfg(1).r);
  EXPECT_TRUE(bank_.GetCfg(1).w);
  EXPECT_TRUE(bank_.GetCfg(1).x);
}

TEST_F(PmpBankTest, WriteCfgLegalizesEachByte) {
  // Byte 0 writes W-without-R: dropped. Byte 1 is valid.
  bank_.WriteCfgReg(0, 0x1F'1Aull);
  EXPECT_EQ(bank_.GetCfg(0).ToByte(), 0x00);
  EXPECT_EQ(bank_.GetCfg(1).ToByte(), 0x1F);
}

TEST_F(PmpBankTest, LockedEntryIgnoresWrites) {
  InstallNapot(2, 0x8000'0000, 0x1000, true, false, false, /*locked=*/true);
  const uint64_t addr_before = bank_.ReadAddrReg(2);
  bank_.WriteCfgReg(0, uint64_t{0x1F} << 16);  // try to rewrite entry 2's cfg
  bank_.WriteAddrReg(2, 0xFFFF);
  EXPECT_TRUE(bank_.GetCfg(2).locked);
  EXPECT_FALSE(bank_.GetCfg(2).w);
  EXPECT_EQ(bank_.ReadAddrReg(2), addr_before);
}

TEST_F(PmpBankTest, TorLockProtectsPreviousAddr) {
  bank_.SetCfg(3, MakeCfg(true, true, true, PmpAddrMode::kTor, /*locked=*/true));
  bank_.SetAddr(2, 0x1000 >> 2);
  bank_.WriteAddrReg(2, 0x9999);  // entry 3 is locked TOR: pmpaddr2 is frozen
  EXPECT_EQ(bank_.ReadAddrReg(2), 0x1000u >> 2);
}

TEST_F(PmpBankTest, OutOfRangeRegistersReadZeroIgnoreWrites) {
  PmpBank small(4);
  small.WriteAddrReg(7, 0x1234);
  EXPECT_EQ(small.ReadAddrReg(7), 0u);
  EXPECT_EQ(small.ReadCfgReg(2), 0u);  // entries 8..15 not implemented
}

TEST_F(PmpBankTest, FirstMatch) {
  InstallNapot(1, 0x8000'0000, 0x1000, true, true, true);
  InstallNapot(3, 0x8000'0000, 0x10000, true, true, true);
  EXPECT_EQ(bank_.FirstMatch(0x8000'0010).value_or(99), 1u);
  EXPECT_EQ(bank_.FirstMatch(0x8000'2000).value_or(99), 3u);
  EXPECT_FALSE(bank_.FirstMatch(0x4000'0000).has_value());
}

TEST_F(PmpBankTest, DescribeListsEntries) {
  InstallNapot(0, 0x8000'0000, 0x1000, true, false, true, true);
  const std::string description = bank_.Describe();
  EXPECT_NE(description.find("NAPOT"), std::string::npos);
  EXPECT_NE(description.find("LR-X"), std::string::npos);
}

// Property: the decoded-range cache always agrees with a freshly decoded check,
// across interleaved mutations and queries.
TEST(PmpPropertyTest, CacheCoherenceUnderMutation) {
  Rng rng(0xCACE);
  PmpBank bank(8);
  for (int iter = 0; iter < 20'000; ++iter) {
    switch (rng.NextBelow(3)) {
      case 0:
        bank.WriteCfgReg(0, rng.NextAdversarial());
        break;
      case 1:
        bank.WriteAddrReg(static_cast<unsigned>(rng.NextBelow(8)), rng.NextAdversarial());
        break;
      default: {
        const uint64_t addr = rng.Next() & MaskLow(34);
        const unsigned size = 1u << rng.NextBelow(4);
        const AccessType type = static_cast<AccessType>(rng.NextBelow(3));
        const PrivMode mode =
            rng.Chance(1, 2) ? PrivMode::kMachine : PrivMode::kSupervisor;
        // Reference: re-decode from the raw registers.
        PmpBank fresh(8);
        for (unsigned i = 0; i < 8; ++i) {
          fresh.SetCfg(i, bank.GetCfg(i));
          fresh.SetAddr(i, bank.GetAddr(i));
        }
        EXPECT_EQ(bank.Check(addr, size, type, mode), fresh.Check(addr, size, type, mode));
        break;
      }
    }
  }
}

// Property (DESIGN.md §2f): the window PermittedWindow returns around an address is
// uniformly permitted — Check holds for every aligned 1-, 2-, 4- and 8-byte access
// inside it — and is empty exactly when Check(addr, 1) fails. Random banks of 0 or
// 16 entries mix OFF, TOR (empty ones included), NA4 and NAPOT entries, locked and
// unlocked, over a 1 KiB span so that they overlap; every mode and data access type
// probes them. Check changes its verdict only at entry boundaries, all of which lie
// in or next to the span, so accesses are enumerated there.
TEST(PmpPropertyTest, PermittedWindowIsUniformlyPermitted) {
  constexpr uint64_t kBase = 0x8000'0000;
  constexpr uint64_t kSpan = 0x400;
  constexpr uint64_t kMargin = 0x40;
  Rng rng(0x3D0F);
  for (int iter = 0; iter < 300; ++iter) {
    const unsigned count = rng.Chance(1, 10) ? 0 : 16;
    PmpBank bank(count);
    for (unsigned i = 0; i < count; ++i) {
      const auto mode = static_cast<PmpAddrMode>(rng.NextBelow(4));
      PmpCfg cfg = MakeCfg(rng.Chance(1, 2), rng.Chance(1, 2), rng.Chance(1, 2), mode,
                           rng.Chance(1, 3));
      bank.SetCfg(i, cfg);
      uint64_t addr = (kBase + 4 * rng.NextBelow(kSpan / 4 + 1)) >> 2;  // OFF, NA4, TOR
      if (mode == PmpAddrMode::kNapot) {
        const uint64_t size = uint64_t{8} << rng.NextBelow(7);  // 8 B .. 512 B
        const uint64_t base = kBase + size * rng.NextBelow(kSpan / size);
        addr = (base >> 2) | ((size >> 3) - 1);
      }
      bank.SetAddr(i, addr);
    }
    for (const PrivMode mode : {PrivMode::kMachine, PrivMode::kSupervisor, PrivMode::kUser}) {
      for (const AccessType type : {AccessType::kLoad, AccessType::kStore}) {
        for (int probe = 0; probe < 4; ++probe) {
          const uint64_t addr = kBase - kMargin + rng.NextBelow(kSpan + 2 * kMargin);
          const PmpRange window = bank.PermittedWindow(addr, type, mode);
          const bool permitted = bank.Check(addr, 1, type, mode);
          ASSERT_EQ(window.base >= window.limit, !permitted)
              << "addr " << std::hex << addr << "\n" << bank.Describe();
          if (!permitted) {
            continue;
          }
          ASSERT_TRUE(window.base <= addr && addr < window.limit);
          const uint64_t lo = std::max(window.base, kBase - kMargin);
          const uint64_t hi = std::min(window.limit, kBase + kSpan + kMargin);
          for (uint64_t size = 1; size <= 8; size *= 2) {
            for (uint64_t a = AlignUp(lo, size); a + size <= hi; a += size) {
              ASSERT_TRUE(bank.Check(a, size, type, mode))
                  << "window [" << std::hex << window.base << ", " << window.limit
                  << ") around " << addr << " denies " << size << " bytes at " << a << "\n"
                  << bank.Describe();
            }
          }
        }
      }
    }
  }
}

// -- Content-keyed epochs (PmpBank::epoch()). -----------------------------------------

// Contents of an 8-entry bank: NAPOT regions with per-entry permissions, varied by
// `seed`.
PmpBank::Contents EpochContents(uint64_t seed) {
  PmpBank::Contents contents;
  for (unsigned i = 0; i < 8; ++i) {
    contents.cfg[i] = MakeCfg(true, (seed >> i) & 1, i % 2 == 0, PmpAddrMode::kNapot).ToByte();
    contents.addr[i] = ((0x8000'0000 + 0x10'0000 * i + 0x1000 * seed) >> 2) | 0x1FF;
  }
  return contents;
}

TEST(PmpEpochTest, EqualContentsGiveEqualWords) {
  PmpBank bank(8);
  const uint64_t empty = bank.epoch();
  EXPECT_NE(empty, 0u);
  const PmpBank::Contents a = EpochContents(1);
  bank.Install(a);
  const uint64_t word = bank.epoch();
  EXPECT_NE(word, empty);
  // Installing, or writing entry by entry, what the bank already holds keeps its word.
  bank.Install(a);
  EXPECT_EQ(bank.epoch(), word);
  bank.SetCfg(3, bank.GetCfg(3));
  bank.SetAddr(5, bank.GetAddr(5));
  bank.WriteCfgReg(0, bank.ReadCfgReg(0));
  bank.WriteAddrReg(2, bank.ReadAddrReg(2));
  EXPECT_EQ(bank.epoch(), word);
  // So does a WARL write the bank ignores (R=0, W=1 keeps the old byte).
  bank.WriteCfgReg(0, (bank.ReadCfgReg(0) & ~uint64_t{0xFF}) | 0x1A);
  EXPECT_EQ(bank.epoch(), word);
}

TEST(PmpEpochTest, OneBitDifferenceGivesDifferentWord) {
  PmpBank bank(8);
  const PmpBank::Contents a = EpochContents(2);
  bank.Install(a);
  const uint64_t word = bank.epoch();
  std::set<uint64_t> seen = {word};
  for (unsigned i = 0; i < 8; ++i) {
    for (unsigned bit = 0; bit < 8 + 54; ++bit) {
      if (bit == 5 || bit == 6) {
        continue;  // reserved cfg bits, never stored
      }
      PmpBank::Contents b = a;
      if (bit < 8) {
        b.cfg[i] ^= static_cast<uint8_t>(1u << bit);
      } else {
        b.addr[i] ^= uint64_t{1} << (bit - 8);
      }
      bank.Install(b);
      EXPECT_TRUE(seen.insert(bank.epoch()).second) << "entry " << i << " bit " << bit;
      bank.Install(a);  // A -> B -> A: A's word comes back
      EXPECT_EQ(bank.epoch(), word) << "entry " << i << " bit " << bit;
    }
  }
}

TEST(PmpEpochTest, RecentContentsKeepTheirWords) {
  PmpBank bank(8);
  uint64_t words[4];
  for (uint64_t i = 0; i < 4; ++i) {
    bank.Install(EpochContents(10 + i));
    words[i] = bank.epoch();
  }
  for (int round = 0; round < 3; ++round) {
    for (uint64_t i = 0; i < 4; ++i) {
      bank.Install(EpochContents(10 + i));
      EXPECT_EQ(bank.epoch(), words[i]) << "contents " << i;
    }
  }
}

TEST(PmpEpochTest, EvictedContentsComeBackWithANeverSeenWord) {
  PmpBank bank(8);
  std::set<uint64_t> seen = {bank.epoch()};
  bank.Install(EpochContents(20));
  const uint64_t a = bank.epoch();
  seen.insert(a);
  // More distinct contents than the table holds, none of them A: A is evicted.
  for (uint64_t i = 0; i < 8; ++i) {
    bank.Install(EpochContents(21 + i));
    EXPECT_TRUE(seen.insert(bank.epoch()).second);
  }
  bank.Install(EpochContents(20));
  EXPECT_TRUE(seen.insert(bank.epoch()).second) << "an evicted word came back";
}

TEST(PmpEpochTest, RunningOutOfIdsMovesTheCount) {
  PmpBank bank(8);
  PmpBank::Contents contents = EpochContents(30);
  bank.Install(contents);
  const uint64_t a = bank.epoch();
  const uint64_t count = a & PmpBank::kEpochCountMask;
  std::set<uint64_t> seen = {a};
  // Distinct contents until the id space starts over: every word is new, with a
  // nonzero id.
  for (uint64_t i = 1; (bank.epoch() & PmpBank::kEpochCountMask) == count; ++i) {
    contents.addr[7] = i;
    bank.Install(contents);
    ASSERT_TRUE(seen.insert(bank.epoch()).second);
    ASSERT_NE(bank.epoch() >> PmpBank::kEpochIdShift, 0u);
  }
  EXPECT_EQ(bank.epoch() & PmpBank::kEpochCountMask, count + 1);
  EXPECT_GT(seen.size(), 60'000u);
  // The table emptied: A's contents get a new word, of the new count.
  bank.Install(EpochContents(30));
  EXPECT_TRUE(seen.insert(bank.epoch()).second);
  EXPECT_EQ(bank.epoch() & PmpBank::kEpochCountMask, count + 1);
}

TEST(PmpEpochTest, BanksOverTheTableSizeGetAWordPerWrite) {
  PmpBank bank(32);
  const uint64_t a = bank.epoch();
  bank.SetAddr(20, 0x1234);
  const uint64_t b = bank.epoch();
  bank.SetAddr(20, 0);  // back to the contents of `a`, which are not interned
  EXPECT_NE(bank.epoch(), a);
  EXPECT_NE(bank.epoch(), b);
}

TEST(PmpEpochTest, LoadedBankGetsAValidNeverSeenWord) {
  PmpBank source(8);
  source.Install(EpochContents(40));
  StateWriter writer;
  source.SaveState(writer);

  PmpBank bank(8);
  std::set<uint64_t> seen = {bank.epoch()};
  for (uint64_t i = 0; i < 3; ++i) {
    bank.Install(EpochContents(40 + i));  // the loaded contents among them
    seen.insert(bank.epoch());
  }
  StateReader reader(writer.bytes());
  ASSERT_TRUE(bank.LoadState(reader));
  const uint64_t loaded = bank.epoch();
  EXPECT_NE(loaded, 0u);
  EXPECT_TRUE(seen.insert(loaded).second) << "a word from before the load came back";
  EXPECT_EQ(bank.Describe(), source.Describe());
  // The loaded contents are interned: leaving and returning gives the word back.
  bank.Install(EpochContents(41));
  EXPECT_TRUE(seen.insert(bank.epoch()).second);
  bank.Install(EpochContents(40));
  EXPECT_EQ(bank.epoch(), loaded);
}

}  // namespace
}  // namespace vfm
