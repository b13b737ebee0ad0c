//! The paper's §5.2.1/§7 outlook claim, quantified.
//!
//! "We are neither saturating the storage I/O throughput (1.2 GB/s) nor
//! the network bandwidth (10 Gb/s) with our current Swift middleware.
//! Thus, by parallelizing the servicing of requests within a group, we
//! can reduce transfer time substantially. With such improvements,
//! Skipper would outperform PostgreSQL by a big margin and offer
//! performance comparable to conventional disk-based storage services."
//!
//! This experiment enables the improvement the authors could not ship:
//! [`Scenario::streams`] opens parallel service-pipeline slots per
//! device, modelling concurrent request servicing against the spun-up
//! disk group faithfully (transfers overlap; each stream still runs at
//! the per-stream rate). The historical bandwidth-multiplier model this
//! experiment used before the pipeline landed survives as
//! `StreamModel::BandwidthMultiplier`; the `streams` experiment A/Bs
//! the two.

use skipper_core::driver::{EngineKind, Scenario};
use skipper_datagen::tpch;

use crate::ctx::Ctx;
use crate::experiments::params::{DIVISOR_MAIN, GIB, SF_MAIN};
use crate::report::{secs, Table};

/// One outlook point.
#[derive(Clone, Copy, Debug)]
pub struct OutlookRow {
    /// Concurrent clients.
    pub clients: usize,
    /// Vanilla on the CSD (serialized middleware).
    pub vanilla_secs: f64,
    /// Skipper, serialized middleware (the paper's prototype).
    pub skipper_1x_secs: f64,
    /// Skipper with 5 parallel intra-group streams (the outlook).
    pub skipper_5x_secs: f64,
    /// The uncontended HDD ideal.
    pub ideal_secs: f64,
}

/// Runs the outlook sweep: 1-5 clients, Q12.
pub fn outlook_rows(ctx: &mut Ctx) -> Vec<OutlookRow> {
    let ds = ctx.tpch(SF_MAIN, DIVISOR_MAIN);
    let q12 = tpch::q12(&ds);
    let ideal = crate::experiments::baseline::ideal_hdd_secs(&ds, &q12);
    (1..=5)
        .map(|clients| {
            let run = |engine, streams: u32| {
                Scenario::new((*ds).clone())
                    .clients(clients)
                    .engine(engine)
                    .cache_bytes(30 * GIB)
                    .streams(streams)
                    .repeat_query(q12.clone(), 1)
                    .run()
                    .mean_query_secs()
            };
            OutlookRow {
                clients,
                vanilla_secs: run(EngineKind::Vanilla, 1),
                skipper_1x_secs: run(EngineKind::Skipper, 1),
                skipper_5x_secs: run(EngineKind::Skipper, 5),
                ideal_secs: ideal,
            }
        })
        .collect()
}

/// The outlook as a printable table.
pub fn outlook(ctx: &mut Ctx) -> Table {
    let mut t = Table::new(
        "Outlook (§7): Skipper with parallel intra-group servicing (Q12, S=10s)",
        &[
            "clients",
            "PostgreSQL",
            "Skipper (1 stream)",
            "Skipper (5 streams)",
            "Ideal HDD",
        ],
    );
    for r in outlook_rows(ctx) {
        t.push_row(vec![
            r.clients.to_string(),
            secs(r.vanilla_secs),
            secs(r.skipper_1x_secs),
            secs(r.skipper_5x_secs),
            secs(r.ideal_secs),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_streams_deliver_the_paper_outlook() {
        let mut ctx = Ctx::new();
        let ds = ctx.tpch(4, 100_000);
        let q12 = tpch::q12(&ds);
        let run = |streams: u32| {
            Scenario::new((*ds).clone())
                .clients(4)
                .engine(EngineKind::Skipper)
                .cache_bytes(10 << 30)
                .streams(streams)
                .repeat_query(q12.clone(), 1)
                .run()
                .mean_query_secs()
        };
        let serial = run(1);
        let parallel = run(5);
        // Transfer-dominated workload: 5 pipeline slots overlap the
        // intra-group transfers. Unlike the old bandwidth multiplier
        // (which divided every transfer by 5 unconditionally), the
        // honest pipeline is bounded by per-stream bandwidth and by
        // how many requests are actually pending per residency, so the
        // gain lands just under 2× here rather than ~5×.
        assert!(
            parallel < serial / 1.7,
            "parallel {parallel:.0}s !<< serial {serial:.0}s"
        );
        // "Performance comparable to conventional disk-based storage":
        // within ~2x of the uncontended ideal even with 4 tenants.
        let ideal = crate::experiments::baseline::ideal_hdd_secs(&ds, &q12);
        assert!(
            parallel < 2.0 * ideal,
            "parallel {parallel:.0}s vs ideal {ideal:.0}s"
        );
    }
}
