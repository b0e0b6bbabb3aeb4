//! The fleet acceptance invariant: campaign aggregates are a pure
//! function of the grid — byte-identical across thread counts (and
//! therefore across hosts, which differ from CI only in how many
//! workers `RTPED_THREADS` resolves to).

use rtped_core::ToJson;
use rtped_fleet::{campaign, CampaignScale, FleetAggregate};

/// The quick campaign's aggregate digest (`rtped-fleet --quick`). Any
/// change to campaign behaviour — a runtime, engine, or hardware-model
/// output that moves by one bit — changes it. Update it only for an
/// intended behaviour change, and say why in the change log.
const QUICK_DIGEST: &str = "158fea26289995fa";

#[test]
fn quick_campaign_aggregate_is_byte_identical_across_thread_counts() {
    let specs = campaign(CampaignScale::Quick);
    let fold = |threads: usize| {
        let reports = rtped_fleet::execute(&specs, Some(threads)).unwrap();
        let rows: Vec<_> = specs.iter().cloned().zip(reports).collect();
        let aggregate = FleetAggregate::from_runs(&rows);
        assert_eq!(
            aggregate.integrity_escapes, 0,
            "campaign must never observe a silent integrity escape"
        );
        aggregate.to_json().to_string_pretty()
    };
    let serial = fold(1);
    assert_eq!(serial, fold(4), "1-thread vs 4-thread aggregates differ");
    assert_eq!(serial, fold(3), "1-thread vs 3-thread aggregates differ");
    // The stress cells actually exercised the degradation machinery:
    // the aggregate counts injected faults and recovered instances.
    assert!(serial.contains("\"fault_counts\""));
    assert!(
        serial.contains(&format!("\"digest\": \"{QUICK_DIGEST}\"")),
        "quick campaign digest moved from the pinned {QUICK_DIGEST}"
    );
}
