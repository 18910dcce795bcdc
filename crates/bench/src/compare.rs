//! Side-by-side comparison of the paper's published numbers against the
//! regenerated ones — the quantitative backbone of EXPERIMENTS.md, as code.
//!
//! The paper publishes exact values only for Table 1; the figures are
//! curves, so their anchors here are read off the plots/text (§6) and the
//! tolerance is correspondingly loose. Each anchor records what we compare,
//! both values, and the relative error.

use crate::experiments::{rndv_cfg, table1_cfgs};
use crate::measure::{layer_decomposition, mpich_latency, ompi_latency, Setup};
use elan4::NicConfig;
use openmpi_core::{RdmaScheme, StackConfig};
use qsnet::FabricConfig;

/// One paper-vs-measured anchor point.
#[derive(Clone, Debug)]
pub struct Anchor {
    /// Which experiment/claim this belongs to.
    pub name: &'static str,
    /// The paper's value (µs unless stated in the name).
    pub paper: f64,
    /// Our regenerated value.
    pub ours: f64,
}

impl Anchor {
    /// Signed relative error (ours vs paper).
    pub fn rel_err(&self) -> f64 {
        (self.ours - self.paper) / self.paper
    }
}

/// Regenerate every anchored comparison.
pub fn anchors() -> Vec<Anchor> {
    let mut out = Vec::new();
    let paper_setup = |c: StackConfig| Setup::paper(c);

    // Table 1 (exact numbers in the paper).
    let [basic, irq, one, two] = table1_cfgs();
    let t1 = [
        ("table1 basic 4B", basic.clone(), 4usize, 3.87),
        ("table1 interrupt 4B", irq.clone(), 4, 14.70),
        ("table1 one-thread 4B", one.clone(), 4, 22.76),
        ("table1 two-thread 4B", two.clone(), 4, 27.50),
        ("table1 basic 4KB", basic, 4096, 15.25),
        ("table1 interrupt 4KB", irq, 4096, 27.16),
        ("table1 one-thread 4KB", one, 4096, 32.80),
        ("table1 two-thread 4KB", two, 4096, 47.72),
    ];
    for (name, cfg, len, paper) in t1 {
        out.push(Anchor {
            name,
            paper,
            ours: ompi_latency(&paper_setup(cfg), len),
        });
    }

    // §6.3: the PML layer costs ~0.5 µs.
    let (_t, pml, _p) = layer_decomposition(&Setup::paper(StackConfig::best()), 0);
    out.push(Anchor {
        name: "fig9 PML layer cost 0B",
        paper: 0.5,
        ours: pml,
    });

    // §6.1: the datatype engine costs ~0.4 µs.
    let base = rndv_cfg(RdmaScheme::Read, true, false);
    let dtp = rndv_cfg(RdmaScheme::Read, true, true);
    out.push(Anchor {
        name: "fig7 DTP overhead",
        paper: 0.4,
        ours: ompi_latency(&paper_setup(dtp), 256) - ompi_latency(&paper_setup(base), 256),
    });

    // Fig. 10(b): 1 MB latency ≈ 1100 µs (≈950 MB/s effective).
    out.push(Anchor {
        name: "fig10b openmpi 1MB latency",
        paper: 1100.0,
        ours: ompi_latency(&Setup::paper(StackConfig::best()), 1 << 20),
    });
    out.push(Anchor {
        name: "fig10b mpich 1MB latency",
        paper: 1100.0,
        ours: mpich_latency(&NicConfig::default(), &FabricConfig::default(), 1 << 20),
    });

    // Fig. 10(a): MPICH small-message latency ≈ 3 µs (QsNetII-era MPI).
    out.push(Anchor {
        name: "fig10a mpich 0B latency",
        paper: 3.0,
        ours: mpich_latency(&NicConfig::default(), &FabricConfig::default(), 0),
    });

    out
}

/// Render the comparison as an aligned table.
pub fn render(anchors: &[Anchor]) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{:<30}{:>12}{:>12}{:>10}\n",
        "anchor", "paper", "ours", "rel err"
    ));
    for a in anchors {
        s.push_str(&format!(
            "{:<30}{:>12.2}{:>12.2}{:>9.0}%\n",
            a.name,
            a.paper,
            a.ours,
            a.rel_err() * 100.0
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchors_within_reproduction_bands() {
        for a in anchors() {
            let err = a.rel_err().abs();
            assert!(
                err < 0.45,
                "{}: paper {:.2} vs ours {:.2} ({:+.0}%) outside the band",
                a.name,
                a.paper,
                a.ours,
                a.rel_err() * 100.0
            );
        }
    }
}
