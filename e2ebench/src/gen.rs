//! Seeded inputs: the op stream each service phase sends and the job
//! list each execution phase runs. Everything here is a pure function
//! of `(workload, seed, seconds)`, so the same seed always yields a
//! byte-identical stream and job list.

use mvisolation::Allocation;
use mvmodel::{OpKind, TransactionSet};
use mvsim::Job;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::collections::VecDeque;
use std::fmt::Write as _;

/// Customers per SmallBank cell: a transaction's accounts all sit in
/// one cell, so the live set decomposes into cell-sized components.
pub const CELL: u32 = 8;
/// Live ad-hoc transactions `svc_churn` keeps registered.
pub const CHURN_LIVE: usize = 512;
/// Live ad-hoc transactions `svc_churn_wide` keeps registered.
pub const WIDE_LIVE: usize = 1024;
/// Live transactions per customer in the churn workloads.
pub const CHURN_PER_CUSTOMER: usize = 4;
/// `assign` reads per churn step.
pub const CHURN_READS: usize = 8;
/// Ad-hoc pool `svc_template` serves `assign` from.
pub const TEMPLATE_POOL: usize = 64;
/// Customer universe of `svc_template` instances.
pub const TEMPLATE_CUSTOMERS: u32 = 1024;

/// The benchmark workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SvcChurn,
    SvcChurnWide,
    SvcTemplate,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SvcChurn,
        Workload::SvcChurnWide,
        Workload::SvcTemplate,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SvcChurn => "svc_churn",
            Workload::SvcChurnWide => "svc_churn_wide",
            Workload::SvcTemplate => "svc_template",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Live set size of a churn workload (`None` for `svc_template`).
    pub fn churn_live(self) -> Option<usize> {
        match self {
            Workload::SvcChurn => Some(CHURN_LIVE),
            Workload::SvcChurnWide => Some(WIDE_LIVE),
            Workload::SvcTemplate => None,
        }
    }
}

/// One request of a service stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    Register { id: u32, line: String },
    Deregister(u32),
    Assign(u32),
    Instantiate { template: u64, params: Vec<u32> },
}

impl Op {
    pub fn is_write(&self) -> bool {
        !matches!(self, Op::Assign(_))
    }
}

/// Everything one run sends and executes.
#[derive(Clone, Debug)]
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    /// Template lines registered during set-up (`svc_template` only).
    pub templates: Vec<String>,
    /// Ad-hoc transactions registered during set-up, `(id, line)`.
    pub preload: Vec<(u32, String)>,
    /// The measured stream, in steps; a run sends a prefix of it.
    pub stream: Vec<Vec<Op>>,
    /// Seeded execution order over the executed population, as
    /// indices into its id-ordered transactions, already repeated.
    pub job_order: Vec<u32>,
}

impl Inputs {
    /// Builds the inputs of `workload` for `seed`. `steps` caps the
    /// stream; `jobs` is the length of the execution job list.
    pub fn new(workload: Workload, seed: u64, steps: usize, jobs: usize) -> Inputs {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xE2E_BE7C);
        let mut inputs = Inputs {
            workload,
            seed,
            templates: Vec::new(),
            preload: Vec::new(),
            stream: Vec::new(),
            job_order: Vec::new(),
        };
        let executed = match workload.churn_live() {
            Some(n) => {
                let customers = (n / CHURN_PER_CUSTOMER) as u32;
                inputs.preload = (1..=n as u32)
                    .map(|id| (id, program_line(&mut rng, id, customers)))
                    .collect();
                let mut live: VecDeque<u32> = inputs.preload.iter().map(|&(id, _)| id).collect();
                for next in (n as u32 + 1..).take(steps) {
                    let mut step = vec![Op::Register {
                        id: next,
                        line: program_line(&mut rng, next, customers),
                    }];
                    live.push_back(next);
                    let oldest = live.pop_front().expect("live set is never empty");
                    step.push(Op::Deregister(oldest));
                    for _ in 0..CHURN_READS {
                        step.push(Op::Assign(live[rng.random_range(0..live.len())]));
                    }
                    inputs.stream.push(step);
                }
                n
            }
            None => {
                let set = mvtemplates::smallbank_templates();
                inputs.templates = (0..set.len())
                    .map(|i| set.get(i).expect("i < len").render())
                    .collect();
                let customers = (TEMPLATE_POOL / CHURN_PER_CUSTOMER) as u32;
                inputs.preload = (1..=TEMPLATE_POOL as u32)
                    .map(|id| (id, program_line(&mut rng, id, customers)))
                    .collect();
                for _ in 0..steps {
                    let op = if rng.random_range(0..2u32) == 0 {
                        let template = rng.random_range(0..set.len());
                        let k = set.get(template).expect("template < len").param_count();
                        let cell = rng.random_range(0..TEMPLATE_CUSTOMERS / CELL) * CELL;
                        let mut params: Vec<u32> = Vec::with_capacity(k);
                        while params.len() < k {
                            let c = cell + rng.random_range(0..CELL) + 1;
                            if !params.contains(&c) {
                                params.push(c);
                            }
                        }
                        Op::Instantiate {
                            template: template as u64,
                            params,
                        }
                    } else {
                        Op::Assign(rng.random_range(1..=TEMPLATE_POOL as u32))
                    };
                    inputs.stream.push(vec![op]);
                }
                TEMPLATE_POOL
            }
        };
        inputs.job_order = job_order(&mut rng, executed, jobs);
        inputs
    }

    /// Canonical text of the inputs: equal seeds give equal bytes.
    pub fn canonical(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "workload {} seed {}", self.workload.name(), self.seed);
        for t in &self.templates {
            let _ = writeln!(out, "template {t}");
        }
        for (id, line) in &self.preload {
            let _ = writeln!(out, "preload {id} {line}");
        }
        for step in &self.stream {
            let _ = writeln!(out, "step {step:?}");
        }
        let _ = writeln!(out, "jobs {:?}", self.job_order);
        out
    }
}

/// `jobs` indices into a population of `n`, as whole seeded
/// permutations (the last one truncated).
fn job_order(rng: &mut SmallRng, n: usize, jobs: usize) -> Vec<u32> {
    let mut out = Vec::with_capacity(jobs);
    let mut perm: Vec<u32> = (0..n as u32).collect();
    while out.len() < jobs {
        for i in (1..perm.len()).rev() {
            perm.swap(i, rng.random_range(0..=i));
        }
        let take = (jobs - out.len()).min(n);
        out.extend_from_slice(&perm[..take]);
    }
    out
}

/// One SmallBank program on customers of one random `CELL`-customer
/// cell among `customers`, in the program mix of
/// [`SmallBank::random_mix`].
fn program_line(rng: &mut SmallRng, id: u32, customers: u32) -> String {
    let cell = rng.random_range(0..customers.div_ceil(CELL)) * CELL;
    let c = cell + rng.random_range(0..CELL) + 1;
    let p: f64 = rng.random_range(0.0..1.0);
    if p < 0.40 {
        format!("T{id}: R[sav{c}] R[chk{c}]")
    } else if p < 0.45 {
        format!("T{id}: R[chk{c}] W[chk{c}]")
    } else if p < 0.60 {
        format!("T{id}: R[sav{c}] W[sav{c}]")
    } else if p < 0.65 {
        let c2 = cell + (c - cell + rng.random_range(0..CELL - 1)) % CELL + 1;
        format!("T{id}: R[sav{c}] W[sav{c}] R[chk{c}] W[chk{c}] R[chk{c2}] W[chk{c2}]")
    } else {
        format!("T{id}: R[sav{c}] R[chk{c}] W[chk{c}]")
    }
}

/// Parses the benchmark's own wire lines into a transaction set.
pub fn parse_lines<'a>(lines: impl Iterator<Item = &'a String>) -> TransactionSet {
    let text: String = lines.map(|l| format!("{l}\n")).collect();
    mvmodel::parse_transactions(&text).expect("the benchmark's own lines parse")
}

/// The SmallBank template (index into `smallbank_templates()`) and
/// customer parameters a SmallBank transaction instantiates, read off
/// its accounts.
pub fn as_instance(set: &TransactionSet, id: mvmodel::TxnId) -> (usize, Vec<u32>) {
    let txn = set.txn(id);
    let shape: String = txn
        .ops()
        .iter()
        .map(|op| {
            let name = set.object_name(op.object);
            let k = if op.kind == OpKind::Read { 'R' } else { 'W' };
            format!("{k}{}", &name[..3])
        })
        .collect();
    let customer = |i: usize| -> u32 {
        set.object_name(txn.ops()[i].object)[3..]
            .parse()
            .expect("SmallBank account names end in the customer number")
    };
    match shape.as_str() {
        "RsavRchk" => (0, vec![customer(0)]),
        "RchkWchk" => (1, vec![customer(0)]),
        "RsavWsav" => (2, vec![customer(0)]),
        "RsavWsavRchkWchkRchkWchk" => (3, vec![customer(0), customer(4)]),
        "RsavRchkWchk" => (4, vec![customer(0)]),
        other => panic!("not a SmallBank program: {other}"),
    }
}

/// The job list: `order` indexes `set`'s transactions in id order,
/// each run at its level in `alloc`.
pub fn jobs(set: &TransactionSet, alloc: &Allocation, order: &[u32]) -> Vec<Job> {
    let txns: Vec<_> = set.iter().collect();
    order
        .iter()
        .map(|&i| {
            let t = txns[i as usize];
            Job::new(t.ops().to_vec(), alloc.level(t.id()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes() {
        for w in Workload::ALL {
            let a = Inputs::new(w, 7, 200, 3000).canonical();
            let b = Inputs::new(w, 7, 200, 3000).canonical();
            assert_eq!(a, b, "{} is not deterministic", w.name());
            let c = Inputs::new(w, 8, 200, 3000).canonical();
            assert_ne!(a, c, "{} ignores its seed", w.name());
        }
    }

    #[test]
    fn same_seed_same_job_list() {
        for w in Workload::ALL {
            let job_list = || {
                let inputs = Inputs::new(w, 3, 10, 5000);
                let set = parse_lines(inputs.preload.iter().map(|(_, l)| l));
                let alloc = Allocation::uniform_ssi(&set);
                format!("{:?}", jobs(&set, &alloc, &inputs.job_order))
            };
            assert_eq!(job_list(), job_list(), "{} is not deterministic", w.name());
        }
    }

    #[test]
    fn churn_keeps_its_live_size_and_cells() {
        let inputs = Inputs::new(Workload::SvcChurnWide, 1, 300, 10);
        let mut live: std::collections::BTreeSet<u32> =
            inputs.preload.iter().map(|&(id, _)| id).collect();
        for step in &inputs.stream {
            for op in step {
                match op {
                    Op::Register { id, .. } => assert!(live.insert(*id)),
                    Op::Deregister(id) => assert!(live.remove(id)),
                    Op::Assign(id) => assert!(live.contains(id)),
                    Op::Instantiate { .. } => unreachable!(),
                }
            }
            assert_eq!(live.len(), WIDE_LIVE);
        }
    }

    #[test]
    fn generated_lines_parse_and_map_to_templates() {
        let inputs = Inputs::new(Workload::SvcChurn, 5, 50, 10);
        let set = parse_lines(inputs.preload.iter().map(|(_, l)| l));
        assert_eq!(set.len(), CHURN_LIVE);
        for t in set.iter() {
            let (template, params) = as_instance(&set, t.id());
            assert!(template < 5);
            let cells: std::collections::BTreeSet<u32> =
                params.iter().map(|c| (c - 1) / CELL).collect();
            assert_eq!(cells.len(), 1, "a transaction stays inside one cell");
        }
    }
}
