//! A simulated process: address space plus thread registry.

use crate::pte::{LocalTid, MAX_LOCAL_TID};
use crate::table::AddressSpace;
use crate::tlb::Asid;
use vulcan_sim::SimThreadId;

/// A process with its address space and threads.
///
/// Thread ids are dense per-process (`LocalTid`, the PTE's 7-bit field) and
/// map to machine-global [`SimThreadId`]s for topology queries.
#[derive(Clone, Debug)]
pub struct Process {
    /// The process's address-space id (TLB tag).
    pub asid: Asid,
    /// The process's page tables.
    pub space: AddressSpace,
    threads: Vec<SimThreadId>,
}

impl Process {
    /// Create a process; `replication` enables per-thread page tables.
    pub fn new(asid: Asid, replication: bool) -> Process {
        Process {
            asid,
            space: AddressSpace::new(replication),
            threads: Vec::new(),
        }
    }

    /// Register a new thread, returning its per-process id.
    ///
    /// # Panics
    /// Panics past 127 threads — the PTE owner field is 7 bits (§4).
    pub fn spawn_thread(&mut self, sim_id: SimThreadId) -> LocalTid {
        assert!(
            self.threads.len() <= MAX_LOCAL_TID as usize,
            "per-process thread limit is {MAX_LOCAL_TID}"
        );
        let tid = LocalTid(u8::try_from(self.threads.len()).expect("bounded by MAX_LOCAL_TID"));
        self.threads.push(sim_id);
        self.space.register_thread(tid);
        tid
    }

    /// The machine-global id of a thread.
    pub fn sim_thread(&self, tid: LocalTid) -> SimThreadId {
        self.threads[tid.0 as usize]
    }

    /// All thread ids, in spawn order.
    pub fn local_tids(&self) -> impl Iterator<Item = LocalTid> + '_ {
        (0..self.threads.len() as u8).map(LocalTid)
    }

    /// All machine-global thread ids.
    pub fn sim_threads(&self) -> &[SimThreadId] {
        &self.threads
    }

    /// Number of threads.
    pub fn n_threads(&self) -> usize {
        self.threads.len()
    }

    /// The threads whose TLBs may cache `vpn`: the private owner only, or
    /// every thread for shared pages. `None` if the page is unmapped.
    ///
    /// This is the information per-thread page-table replication makes
    /// available (§3.4). Shootdown planning reads the owner directly
    /// ([`ThreadCores::plan`](crate::shootdown::ThreadCores::plan)); this
    /// per-page list is the reference the planner is tested against.
    #[cfg(test)]
    pub(crate) fn caching_threads(&self, vpn: crate::addr::Vpn) -> Option<Vec<SimThreadId>> {
        use crate::pte::PageOwner;
        match self.space.owner(vpn)? {
            PageOwner::Private(t) => Some(vec![self.sim_thread(t)]),
            PageOwner::Shared => Some(self.threads.clone()),
        }
    }
}

impl vulcan_json::Snapshot for Process {
    fn snapshot(&self) -> vulcan_json::Value {
        use vulcan_json::snap;
        let threads: Vec<u64> = self.threads.iter().map(|t| t.0 as u64).collect();
        snap::obj(vec![
            ("asid", snap::u64_value(self.asid.0 as u64)),
            ("space", self.space.snapshot()),
            ("threads", snap::u64_array(&threads)),
        ])
    }

    fn restore(v: &vulcan_json::Value) -> Result<Self, String> {
        use vulcan_json::snap;
        let asid = u16::try_from(snap::field_u64(v, "asid")?)
            .map_err(|_| "asid out of u16 range".to_string())?;
        let threads: Vec<SimThreadId> = snap::array_u64(snap::field(v, "threads")?)?
            .into_iter()
            .map(|t| {
                u32::try_from(t)
                    .map(SimThreadId)
                    .map_err(|_| "thread id out of u32 range".to_string())
            })
            .collect::<Result<_, String>>()?;
        Ok(Process {
            asid: Asid(asid),
            space: AddressSpace::restore(snap::field(v, "space")?)?,
            threads,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Vpn;
    use vulcan_sim::{FrameId, TierKind};

    fn proc() -> Process {
        Process::new(Asid(1), true)
    }

    #[test]
    fn spawn_assigns_dense_tids() {
        let mut p = proc();
        assert_eq!(p.spawn_thread(SimThreadId(100)), LocalTid(0));
        assert_eq!(p.spawn_thread(SimThreadId(200)), LocalTid(1));
        assert_eq!(p.sim_thread(LocalTid(1)), SimThreadId(200));
        assert_eq!(p.n_threads(), 2);
        assert_eq!(p.local_tids().count(), 2);
    }

    #[test]
    fn caching_threads_private_vs_shared() {
        let mut p = proc();
        let t0 = p.spawn_thread(SimThreadId(10));
        let t1 = p.spawn_thread(SimThreadId(11));
        p.space.map(
            Vpn(1),
            FrameId {
                tier: TierKind::Slow,
                index: 0,
            },
            t0,
        );
        p.space.touch(Vpn(1), t0, false).unwrap();
        assert_eq!(p.caching_threads(Vpn(1)), Some(vec![SimThreadId(10)]));
        p.space.touch(Vpn(1), t1, false).unwrap();
        assert_eq!(
            p.caching_threads(Vpn(1)),
            Some(vec![SimThreadId(10), SimThreadId(11)])
        );
        assert_eq!(p.caching_threads(Vpn(99)), None);
    }

    #[test]
    fn snapshot_roundtrip_keeps_threads_and_ownership() {
        use vulcan_json::Snapshot;
        let mut p = proc();
        let t0 = p.spawn_thread(SimThreadId(10));
        let t1 = p.spawn_thread(SimThreadId(11));
        p.space.map(
            Vpn(5),
            FrameId {
                tier: TierKind::Fast,
                index: 2,
            },
            t0,
        );
        p.space.touch(Vpn(5), t0, true).unwrap();
        p.space.touch(Vpn(5), t1, false).unwrap();
        let back = Process::restore(&p.snapshot()).expect("restore");
        assert_eq!(back.snapshot(), p.snapshot());
        assert_eq!(back.asid, p.asid);
        assert_eq!(back.n_threads(), 2);
        assert_eq!(back.sim_thread(t1), SimThreadId(11));
        assert_eq!(
            back.caching_threads(Vpn(5)),
            Some(vec![SimThreadId(10), SimThreadId(11)])
        );
    }
}
