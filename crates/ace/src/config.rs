//! Machine configuration.

use crate::fault::{FaultConfig, HardFault};
use crate::time::CostModel;
use crate::topology::{Topology, TopologyBuilder};

/// Power-of-two page size, with helpers for address arithmetic.
///
/// The Rosetta MMU of the RT PC family used 2 KB pages; that is the
/// default. The false-sharing ablation varies this.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PageSize {
    shift: u32,
}

impl PageSize {
    /// Creates a page size of `bytes`, which must be a power of two of at
    /// least 64 bytes.
    pub fn new(bytes: usize) -> PageSize {
        assert!(bytes.is_power_of_two() && bytes >= 64, "bad page size {bytes}");
        PageSize { shift: bytes.trailing_zeros() }
    }

    /// Page size in bytes.
    #[inline]
    pub fn bytes(self) -> usize {
        1usize << self.shift
    }

    /// log2 of the page size.
    #[inline]
    pub fn shift(self) -> u32 {
        self.shift
    }

    /// Virtual page number containing byte address `addr`.
    #[inline]
    pub fn page_of(self, addr: u64) -> u64 {
        addr >> self.shift
    }

    /// Byte offset of `addr` within its page.
    #[inline]
    pub fn offset_of(self, addr: u64) -> usize {
        (addr & ((1u64 << self.shift) - 1)) as usize
    }

    /// First byte address of page `page`.
    #[inline]
    pub fn base_of(self, page: u64) -> u64 {
        page << self.shift
    }

    /// Number of pages needed to hold `bytes` bytes.
    #[inline]
    pub fn pages_for(self, bytes: u64) -> u64 {
        bytes.div_ceil(1u64 << self.shift)
    }

    /// Rounds `addr` up to the next page boundary.
    #[inline]
    pub fn round_up(self, addr: u64) -> u64 {
        let mask = (1u64 << self.shift) - 1;
        (addr + mask) & !mask
    }
}

impl Default for PageSize {
    fn default() -> Self {
        PageSize::new(2048)
    }
}

/// Static description of one simulated machine.
///
/// The machine's shape — processor count, memory nodes, per-node frame
/// pools, and the inter-node cost structure — lives in
/// [`Topology`]; this struct adds the machine-wide knobs (page size,
/// global memory, the kernel cost model, contention, faults). Build one
/// with [`TopologyBuilder::config`].
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Processor-and-node shape of the machine, with per-hop costs and
    /// per-node local frame pools.
    pub topology: Topology,
    /// Page size used by the MMUs and the memory pools.
    pub page_size: PageSize,
    /// Number of page frames of global memory (this also bounds the Mach
    /// logical page pool, which is the same size as global memory).
    pub global_frames: usize,
    /// Global-memory access and kernel-operation costs. Local-memory
    /// access costs come from the topology's hop rows.
    pub costs: CostModel,
    /// Model bus contention with an FCFS queue on top of the fixed
    /// access costs (off by default: the paper's methodology assumes
    /// contention-free runs and the Table 3 calibration relies on it).
    pub bus_contention: bool,
    /// Fault-injection knobs (all rates zero by default, which disables
    /// the fault layer entirely).
    pub faults: FaultConfig,
}

impl MachineConfig {
    /// Number of processor modules.
    #[inline]
    pub fn n_cpus(&self) -> usize {
        self.topology.n_cpus()
    }

    /// Total bytes of global memory.
    pub fn global_bytes(&self) -> usize {
        self.global_frames * self.page_size.bytes()
    }

    /// Validates internal consistency, including the hard-fault
    /// schedule against the topology: every failure must name a
    /// component that exists, and at least one processor must survive.
    pub fn validate(&self) -> Result<(), String> {
        self.topology.validate()?;
        if self.global_frames == 0 {
            return Err("no global memory".to_string());
        }
        self.faults.validate()?;
        let (cpus, nodes) = (self.n_cpus(), self.topology.n_nodes());
        for hf in &self.faults.hard_faults {
            let (kind, index, count) = match *hf {
                HardFault::NodeOffline { node, .. } => ("node", node.index(), nodes),
                HardFault::CpuOffline { cpu, .. } => ("processor", cpu.index(), cpus),
            };
            if index >= count {
                return Err(format!("{hf:?} names {kind} {index} of {count}"));
            }
        }
        // Entries are distinct (checked above), so this counts processors.
        let hf = &self.faults.hard_faults;
        if hf.iter().filter(|hf| matches!(hf, HardFault::CpuOffline { .. })).count() >= cpus {
            return Err(format!("the hard-fault schedule offlines all {cpus} processors"));
        }
        Ok(())
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        TopologyBuilder::flat_ace(8).config()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Ns;
    use crate::types::{CpuId, NodeId};

    #[test]
    fn page_size_arithmetic() {
        let p = PageSize::new(2048);
        assert_eq!(p.bytes(), 2048);
        assert_eq!(p.page_of(4096), 2);
        assert_eq!(p.offset_of(4097), 1);
        assert_eq!(p.base_of(3), 6144);
        assert_eq!(p.pages_for(1), 1);
        assert_eq!(p.pages_for(2048), 1);
        assert_eq!(p.pages_for(2049), 2);
        assert_eq!(p.round_up(0), 0);
        assert_eq!(p.round_up(1), 2048);
        assert_eq!(p.round_up(2048), 2048);
    }

    #[test]
    #[should_panic(expected = "bad page size")]
    fn page_size_rejects_non_power_of_two() {
        let _ = PageSize::new(3000);
    }

    #[test]
    fn ace_config_sizes() {
        let c = TopologyBuilder::flat_ace(5).config();
        assert_eq!(c.n_cpus(), 5);
        assert_eq!(c.global_bytes(), 16 * 1024 * 1024);
        assert_eq!(
            c.topology.local_frames(crate::types::NodeId(0)) * c.page_size.bytes(),
            8 * 1024 * 1024
        );
        c.validate().unwrap();
    }

    #[test]
    fn builder_configs_are_plain_values() {
        // Two independently built descriptions of the same machine are
        // equal values — the description is data, with no hidden
        // constructor state to diverge on.
        let a = TopologyBuilder::flat_ace(3).config();
        let b = TopologyBuilder::flat_ace(3).config();
        assert_eq!(a.topology, b.topology);
        assert_eq!(a.global_frames, b.global_frames);
        assert_eq!(TopologyBuilder::small(2).config().topology, TopologyBuilder::small(2).build());
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let mut c = TopologyBuilder::small(2).config();
        c.global_frames = 0;
        assert!(c.validate().is_err());
        let c = TopologyBuilder::small(2).local_frames(0).config();
        assert!(c.validate().is_err());
        // Hard-fault schedules are checked against the topology: each
        // of these used to pass and then panic inside a grant decision.
        let with = |hard: Vec<HardFault>| {
            let mut c = TopologyBuilder::small(2).config();
            c.faults.hard_faults = hard;
            c.validate()
        };
        let err = with(vec![HardFault::CpuOffline { cpu: CpuId(7), vt: Ns(10) }]).unwrap_err();
        assert!(err.contains("processor 7 of 2"), "{err}");
        let err = with(vec![HardFault::NodeOffline { node: NodeId(5), vt: Ns(10) }]).unwrap_err();
        assert!(err.contains("node 5 of 2"), "{err}");
        let all = (0..2).map(|c| HardFault::CpuOffline { cpu: CpuId(c), vt: Ns(10) }).collect();
        let err = with(all).unwrap_err();
        assert!(err.contains("offlines all 2 processors"), "{err}");
        // One survivor, and a node loss, are fine.
        with(vec![
            HardFault::CpuOffline { cpu: CpuId(1), vt: Ns(10) },
            HardFault::NodeOffline { node: NodeId(1), vt: Ns(20) },
        ])
        .unwrap();
    }
}
