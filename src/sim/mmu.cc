#include "src/sim/mmu.h"

#include "src/common/bits.h"

namespace vfm {

ExceptionCause PageFaultFor(AccessType type) {
  switch (type) {
    case AccessType::kFetch:
      return ExceptionCause::kInstrPageFault;
    case AccessType::kLoad:
      return ExceptionCause::kLoadPageFault;
    case AccessType::kStore:
      return ExceptionCause::kStorePageFault;
  }
  return ExceptionCause::kLoadPageFault;
}

ExceptionCause AccessFaultFor(AccessType type) {
  switch (type) {
    case AccessType::kFetch:
      return ExceptionCause::kInstrAccessFault;
    case AccessType::kLoad:
      return ExceptionCause::kLoadAccessFault;
    case AccessType::kStore:
      return ExceptionCause::kStoreAccessFault;
  }
  return ExceptionCause::kLoadAccessFault;
}

ExceptionCause MisalignedFor(AccessType type) {
  switch (type) {
    case AccessType::kFetch:
      return ExceptionCause::kInstrAddrMisaligned;
    case AccessType::kLoad:
      return ExceptionCause::kLoadAddrMisaligned;
    case AccessType::kStore:
      return ExceptionCause::kStoreAddrMisaligned;
  }
  return ExceptionCause::kLoadAddrMisaligned;
}

TranslateResult TranslateSv39(Bus* bus, const PmpBank& pmp, const TranslateParams& params,
                              uint64_t vaddr, AccessType type, PtAccessor* pt) {
  TranslateResult result;
  result.fault = PageFaultFor(type);

  if (IdentityTranslation(params.satp, params.priv)) {
    result.ok = true;
    result.paddr = vaddr;
    return result;
  }

  // Sv39 requires bits [63:39] to equal bit 38 (canonical form).
  const uint64_t upper = vaddr >> 38;
  if (upper != 0 && upper != MaskLow(26)) {
    return result;
  }

  uint64_t table = ExtractBits(params.satp, SatpBits::kPpnHi, SatpBits::kPpnLo) << 12;
  for (int level = 2; level >= 0; --level) {
    ++result.walk_levels;
    const uint64_t vpn = ExtractBits(vaddr, 12 + 9 * level + 8, 12 + 9 * level);
    const uint64_t pte_addr = table + vpn * 8;
    result.pte_addrs[result.pte_count++] = pte_addr;
    if (!pmp.Check(pte_addr, 8, AccessType::kLoad, PrivMode::kSupervisor)) {
      result.fault = AccessFaultFor(type);
      return result;
    }
    uint64_t pte = 0;
    if (pt != nullptr) {
      if (!pt->ReadPte(pte_addr, &pte)) {
        result.segment_abort = true;
        return result;
      }
    } else if (!bus->Read(pte_addr, 8, &pte)) {
      result.fault = AccessFaultFor(type);
      return result;
    }
    if ((pte & PteBits::kValid) == 0 ||
        ((pte & PteBits::kRead) == 0 && (pte & PteBits::kWrite) != 0)) {
      return result;  // invalid PTE or reserved W-without-R encoding
    }
    const bool is_leaf = (pte & (PteBits::kRead | PteBits::kExec)) != 0;
    if (!is_leaf) {
      if (level == 0) {
        return result;  // non-leaf at the last level
      }
      table = ExtractBits(pte, 53, 10) << 12;
      continue;
    }

    // Leaf: check alignment of superpages.
    const uint64_t ppn = ExtractBits(pte, 53, 10);
    if (level > 0 && (ppn & MaskLow(9 * level)) != 0) {
      return result;  // misaligned superpage
    }

    // Permission checks.
    const bool user_page = (pte & PteBits::kUser) != 0;
    if (params.priv == PrivMode::kUser && !user_page) {
      return result;
    }
    if (params.priv == PrivMode::kSupervisor && user_page &&
        (type == AccessType::kFetch || !params.sum)) {
      return result;
    }
    switch (type) {
      case AccessType::kFetch:
        if ((pte & PteBits::kExec) == 0) {
          return result;
        }
        break;
      case AccessType::kLoad: {
        const bool readable =
            (pte & PteBits::kRead) != 0 || (params.mxr && (pte & PteBits::kExec) != 0);
        if (!readable) {
          return result;
        }
        break;
      }
      case AccessType::kStore:
        if ((pte & PteBits::kWrite) == 0) {
          return result;
        }
        break;
    }

    // Hardware A/D update.
    uint64_t updated = pte | PteBits::kAccessed;
    if (type == AccessType::kStore) {
      updated |= PteBits::kDirty;
    }
    if (updated != pte) {
      if (!pmp.Check(pte_addr, 8, AccessType::kStore, PrivMode::kSupervisor)) {
        result.fault = AccessFaultFor(type);
        return result;
      }
      if (pt != nullptr) {
        if (!pt->WritePte(pte_addr, updated)) {
          result.segment_abort = true;
          return result;
        }
      } else {
        bus->Write(pte_addr, 8, updated);
      }
    }

    const uint64_t page_offset = vaddr & MaskLow(12 + 9 * level);
    result.ok = true;
    result.paddr = ((ppn >> (9 * level)) << (12 + 9 * level)) | page_offset;
    return result;
  }
  return result;
}

}  // namespace vfm
