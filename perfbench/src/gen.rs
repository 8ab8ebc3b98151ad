//! Seeded inputs: documents, the `--sigma` text, and the bounded
//! break/repair edit streams. Everything here is a function of the
//! workload seed; the program only ever sees what these functions emit.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use xic::prelude::*;
use xic_bench::constraint_heavy_workload;

/// SplitMix64, so the inputs depend on `--seed` and nothing else.
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// An independent seed for input stream `k` of workload seed `seed`.
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    Rng::new(seed ^ k.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

/// One in this many `order.part` references dangles in a generated
/// document, so every report lists violations.
const DANGLE_EVERY: usize = 1000;

/// A generated document and its `DTD^C`.
pub struct Doc {
    /// The XML source, its DTD as the internal `<!DOCTYPE>` subset.
    pub src: String,
    /// The schema: the ten-constraint `L_u` Σ of
    /// `constraint_heavy_workload`.
    pub dtdc: DtdC,
    /// Vertex count.
    pub vertices: usize,
}

/// `constraint_heavy_workload` of ~`n` vertices with a seeded share of its
/// `order.part` references retargeted to ids no part has.
pub fn doc(n: usize, seed: u64) -> Doc {
    let (dtdc, mut tree) = constraint_heavy_workload(n, seed);
    let orders: Vec<NodeId> = tree.ext("order").collect();
    let mut rng = Rng::new(sub_seed(seed, 1));
    for _ in 0..(orders.len() / DANGLE_EVERY).max(1) {
        let order = orders[rng.below(orders.len())];
        let dangling = AttrValue::single(format!("x{}", rng.below(orders.len())));
        tree.set_attr(order, "part", dangling)
            .expect("a generated order vertex is alive");
    }
    let src = format!(
        "<!DOCTYPE db [\n{}]>\n{}",
        serialize_dtd(dtdc.structure()),
        serialize_document(&tree)
    );
    Doc {
        src,
        dtdc,
        vertices: tree.len(),
    }
}

/// Σ in the `--sigma` file syntax, one constraint per line.
pub fn sigma_text(dtdc: &DtdC) -> String {
    dtdc.constraints()
        .iter()
        .map(|c| format!("{c}\n"))
        .collect()
}

/// Whether [`sigma_text`] parses back to exactly `dtdc`'s Σ.
pub fn sigma_round_trips(dtdc: &DtdC) -> bool {
    DtdC::parse(dtdc.structure().clone(), Language::Lu, &sigma_text(dtdc))
        .is_ok_and(|parsed| parsed.constraints() == dtdc.constraints())
}

/// The node numbers (as `render --ids` prints them) of the `order`
/// vertices of document `src`, in document order.
pub fn order_vertices(src: &str) -> Result<Vec<usize>, String> {
    let doc = parse_document(src).map_err(|e| e.to_string())?;
    Ok(doc.tree.ext("order").map(NodeId::index).collect())
}

/// Lines in every edit script.
pub const SCRIPT_LINES: usize = 8;

/// At most this many references a stream has broken are open at once;
/// further breaks wait for a repair, so reports stay the same size.
const MAX_BROKEN: usize = 16;

/// A seeded stream of `set-attr` scripts over one document's orders.
///
/// Each line retargets an order's `sup` or `part` reference. A `part`
/// write either breaks the reference (a dangling `x…` id) or points it at
/// a real part, which repairs it if it was broken; repairs pick broken
/// orders half the time. About one line in four rewrites a (vertex,
/// attribute) an earlier line of the same script wrote, so the daemon's
/// last-writer-wins coalescing has work to do.
pub struct EditStream {
    rng: Rng,
    orders: Vec<usize>,
    broken: BTreeSet<usize>,
}

impl EditStream {
    /// A stream over the order vertices `orders` (non-empty).
    pub fn new(seed: u64, orders: Vec<usize>) -> EditStream {
        EditStream {
            rng: Rng::new(seed),
            orders,
            broken: BTreeSet::new(),
        }
    }

    /// The next script: [`SCRIPT_LINES`] newline-terminated lines.
    pub fn next_script(&mut self) -> String {
        let mut written: Vec<(usize, &'static str)> = Vec::with_capacity(SCRIPT_LINES);
        let mut script = String::new();
        for line in 0..SCRIPT_LINES {
            let (node, attr) = if line > 0 && self.rng.below(4) == 0 {
                written[self.rng.below(written.len())]
            } else if self.rng.below(2) == 0 {
                (self.any_order(), "sup")
            } else if !self.broken.is_empty() && self.rng.below(2) == 0 {
                let k = self.rng.below(self.broken.len());
                let order = *self.broken.iter().nth(k).expect("k < broken.len()");
                (order, "part")
            } else {
                (self.any_order(), "part")
            };
            let value = self.value(node, attr);
            written.push((node, attr));
            let _ = writeln!(script, "set-attr {node} {attr} {value}");
        }
        script
    }

    fn any_order(&mut self) -> usize {
        self.orders[self.rng.below(self.orders.len())]
    }

    /// The value the next write of `attr` on `node` sets. Documents have
    /// as many suppliers and parts as orders, so `s…`/`p…` ids below that
    /// count exist.
    fn value(&mut self, node: usize, attr: &str) -> String {
        let rows = self.orders.len();
        if attr == "sup" {
            return format!("s{}", self.rng.below(rows));
        }
        if self.broken.len() < MAX_BROKEN && self.rng.below(4) == 0 {
            self.broken.insert(node);
            format!("x{}", self.rng.below(rows))
        } else {
            self.broken.remove(&node);
            format!("p{}", self.rng.below(rows))
        }
    }
}
