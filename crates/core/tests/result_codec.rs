//! Byte-level pins of the two persisted encodings of a result row: a
//! result-store record payload and a study JSON. Stores and study files
//! written by earlier builds must keep loading, so any change to these
//! bytes is a format change, not a refactor.

use ggs_core::runner::{CellReport, CellStatus};
use ggs_core::store::Record;
use ggs_core::study::{ResultRow, Study, WorkloadReport};

fn row() -> ResultRow {
    ResultRow {
        config: "SGR".to_owned(),
        total_cycles: 123_456,
        fractions: [0.5, 0.25, 0.125, 0.0625, 0.0625],
    }
}

#[test]
fn result_record_payload_bytes_are_pinned() {
    let record = Record::Result {
        spec_hash: "00ff00ff00ff00ff".to_owned(),
        app: "PR".to_owned(),
        graph: "RAJ".to_owned(),
        row: row(),
    };
    let payload = record.payload();
    assert_eq!(
        payload,
        "{\"app\":\"PR\",\"config\":\"SGR\",\"fractions\":[0.5,0.25,0.125,0.0625,0.0625],\
         \"graph\":\"RAJ\",\"kind\":\"result\",\"spec_hash\":\"00ff00ff00ff00ff\",\
         \"total_cycles\":123456}"
    );
    assert_eq!(Record::parse(&payload), Some(record));
}

#[test]
fn study_json_bytes_are_pinned() {
    let study = Study {
        scale: 0.125,
        reports: vec![WorkloadReport {
            app: "PR".to_owned(),
            graph: "RAJ".to_owned(),
            classes: "HML".to_owned(),
            predicted: "SGR".to_owned(),
            predicted_partial: "TG0".to_owned(),
            best: "SGR".to_owned(),
            baseline: "TG0".to_owned(),
            rows: vec![
                row(),
                ResultRow {
                    config: "TG0".to_owned(),
                    total_cycles: 200_000,
                    fractions: [0.75, 0.0, 0.25, 0.0, 0.0],
                },
            ],
        }],
        failures: vec![CellReport {
            app: "CC".to_owned(),
            graph: "AMZ".to_owned(),
            config: "DD1".to_owned(),
            status: CellStatus::Timeout,
            detail: "kernel budget exhausted: 64 of at most 64".to_owned(),
            attempts: 2,
        }],
    };
    let json = study.to_json();
    assert_eq!(
        json,
        "{\"failures\":[{\"app\":\"CC\",\"attempts\":2,\"config\":\"DD1\",\
         \"detail\":\"kernel budget exhausted: 64 of at most 64\",\"graph\":\"AMZ\",\
         \"status\":\"timeout\"}],\"reports\":[{\"app\":\"PR\",\"baseline\":\"TG0\",\
         \"best\":\"SGR\",\"classes\":\"HML\",\"graph\":\"RAJ\",\"predicted\":\"SGR\",\
         \"predicted_partial\":\"TG0\",\"rows\":[{\"config\":\"SGR\",\
         \"fractions\":[0.5,0.25,0.125,0.0625,0.0625],\"total_cycles\":123456},\
         {\"config\":\"TG0\",\"fractions\":[0.75,0,0.25,0,0],\"total_cycles\":200000}]}],\
         \"scale\":0.125}"
    );
    assert_eq!(Study::from_json(&json).unwrap(), study);
}
