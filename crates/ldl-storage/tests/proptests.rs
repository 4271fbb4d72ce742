//! Property-based tests for the storage layer: relation set semantics,
//! index/scan agreement, statistics consistency, and loader round-trips.
//!
//! Runs on `ldl_support::prop`; replay any failure with the
//! `LDL_PROP_SEED` value printed in the panic message.

use ldl_core::{Pred, Term};
use ldl_storage::codec::{self, Frame};
use ldl_storage::{loader, Database, Relation, Stats, Tuple};
use ldl_support::prop::{check, i64s, pairs, triples, usizes, vecs, Config, Gen};
use std::io::Cursor;

fn cfg() -> Config {
    Config::with_cases(64)
}

fn tuple_lists(arity: usize) -> Gen<Vec<Vec<i64>>> {
    vecs(vecs(i64s(-20..20), arity..arity + 1), 0..60)
}

/// Relations behave as sets: length equals the number of distinct
/// tuples; contains agrees with membership; re-inserting changes
/// nothing.
#[test]
fn relation_set_semantics() {
    check("relation_set_semantics", &cfg(), &tuple_lists(2), |rows| {
        let mut rel = Relation::new(2);
        for r in rows {
            rel.insert(Tuple::ints(r));
        }
        let mut distinct = rows.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(rel.len(), distinct.len());
        for r in rows {
            assert!(rel.contains(&Tuple::ints(r)));
        }
        let before = rel.len();
        for r in rows {
            rel.insert(Tuple::ints(r));
        }
        assert_eq!(rel.len(), before);
    });
}

/// Ordered-index prefix probes return exactly the rows a scan would
/// find, in the scan's order, and the index counts the column's
/// distinct values.
#[test]
fn index_agrees_with_scan() {
    let gen = pairs(tuple_lists(2), i64s(-20..20));
    check("index_agrees_with_scan", &cfg(), &gen, |(rows, key)| {
        let key = *key;
        let rel = Relation::from_tuples(2, rows.iter().map(|r| Tuple::ints(r)));
        let idx = rel.ordered_index_on(&[0]);
        let via_index: Vec<&Tuple> = idx
            .probe_prefix(rel.rows(), &[Term::int(key)])
            .into_iter()
            .map(|i| rel.row(i))
            .collect();
        let via_scan: Vec<&Tuple> = rel.iter().filter(|t| t.get(0) == &Term::int(key)).collect();
        assert_eq!(via_index, via_scan);
        let distinct: std::collections::HashSet<&Term> = rel.iter().map(|t| t.get(0)).collect();
        assert_eq!(idx.distinct_keys(rel.rows()), distinct.len());
    });
}

/// Measured statistics are internally consistent: distinct counts
/// never exceed cardinality and are at least 1 for nonempty columns.
#[test]
fn stats_consistency() {
    check("stats_consistency", &cfg(), &tuple_lists(3), |rows| {
        let rel = Relation::from_tuples(3, rows.iter().map(|r| Tuple::ints(r)));
        let s = Stats::measure(&rel);
        assert_eq!(s.cardinality as usize, rel.len());
        for c in 0..3 {
            assert!(s.distinct[c] <= s.cardinality.max(0.0));
            if !rel.is_empty() {
                assert!(s.distinct[c] >= 1.0);
            }
            // Selectivity in (0, 1].
            let sel = s.eq_selectivity(c);
            assert!(sel > 0.0 && sel <= 1.0);
        }
    });
}

/// TSV write → read is the identity on integer relations.
#[test]
fn loader_round_trip() {
    check("loader_round_trip", &cfg(), &tuple_lists(2), |rows| {
        let rel = Relation::from_tuples(2, rows.iter().map(|r| Tuple::ints(r)));
        let mut buf = Vec::new();
        loader::write_relation(&rel, &mut buf, '\t').unwrap();
        let back = loader::read_relation(Cursor::new(buf), 2, '\t').unwrap();
        assert_eq!(rel, back);
    });
}

/// Version counter increments exactly on novel inserts, so cached
/// indexes can rely on it for staleness detection.
#[test]
fn version_tracks_novel_inserts() {
    check(
        "version_tracks_novel_inserts",
        &cfg(),
        &tuple_lists(1),
        |rows| {
            let mut rel = Relation::new(1);
            let mut expected = 0u64;
            let mut seen = std::collections::HashSet::new();
            for r in rows {
                if seen.insert(r.clone()) {
                    expected += 1;
                }
                rel.insert(Tuple::ints(r));
                assert_eq!(rel.version(), expected);
            }
        },
    );
}

/// Codec decode paths are total on hostile bytes: truncating an
/// encoded database at any point, or flipping any single bit, must
/// yield `Ok` or a clean `Err` — never a panic, and never an
/// allocation sized by an unvalidated length field. The clean bytes
/// must still round-trip exactly.
#[test]
fn codec_database_decode_survives_truncation_and_bitflips() {
    let gen = triples(tuple_lists(2), usizes(0..1 << 16), usizes(0..1 << 16));
    check(
        "codec_database_decode_survives_truncation_and_bitflips",
        &cfg(),
        &gen,
        |(rows, cut, flip)| {
            let mut db = Database::new();
            let e = Pred::new("e", 2);
            for r in rows {
                db.insert(e, Tuple::ints(r));
            }
            let bytes = codec::encode_database(&db);
            let back = codec::decode_database(&bytes).expect("clean decode");
            assert_eq!(codec::encode_database(&back), bytes, "round-trip identity");

            // Any prefix decodes totally (usually to an error).
            let _ = codec::decode_database(&bytes[..cut % (bytes.len() + 1)]);

            // Any single-bit flip decodes totally. A flip in a length
            // field may claim gigabytes — the decoder must refuse from
            // the remaining input, not allocate first.
            let mut corrupt = bytes.clone();
            let bit = flip % (corrupt.len() * 8);
            corrupt[bit / 8] ^= 1 << (bit % 8);
            if let Ok(mangled) = codec::decode_database(&corrupt) {
                // Accepted corruption must at least be self-consistent:
                // what decoded re-encodes to what was decoded from.
                assert_eq!(codec::encode_database(&mangled), corrupt);
            }
        },
    );
}

/// Frame reads are total on hostile bytes: any truncation of a valid
/// frame stream reads as `Torn` (or a shorter valid prefix), any
/// single-bit flip reads as `Torn` or an intact other frame
/// — never a panic, and a declared length far past the input must not
/// be allocated up front.
#[test]
fn codec_frame_reads_survive_truncation_and_bitflips() {
    let gen = triples(
        vecs(i64s(-128..128), 0..200),
        usizes(0..1 << 16),
        usizes(0..1 << 16),
    );
    check(
        "codec_frame_reads_survive_truncation_and_bitflips",
        &cfg(),
        &gen,
        |(payload_ints, cut, flip)| {
            let payload: Vec<u8> = payload_ints.iter().map(|i| *i as u8).collect();
            let mut bytes = Vec::new();
            codec::write_frame(&mut bytes, &payload).unwrap();
            match codec::read_frame(&mut Cursor::new(&bytes)).unwrap() {
                Frame::Payload(p) => assert_eq!(p, payload),
                other => panic!("clean frame read as {other:?}"),
            }

            // Truncation: never a payload longer than what was framed.
            let cut = cut % (bytes.len() + 1);
            match codec::read_frame(&mut Cursor::new(&bytes[..cut])).unwrap() {
                Frame::Payload(p) => {
                    assert_eq!(cut, bytes.len(), "payload out of a truncated frame");
                    assert_eq!(p, payload);
                }
                Frame::Torn | Frame::Eof => {}
            }

            // Bit flips: the CRC catches payload damage; header damage
            // may claim an absurd length, which must surface as Torn
            // without a matching up-front allocation.
            let mut corrupt = bytes.clone();
            let bit = flip % (corrupt.len() * 8);
            corrupt[bit / 8] ^= 1 << (bit % 8);
            match codec::read_frame(&mut Cursor::new(&corrupt)).unwrap() {
                Frame::Payload(p) => {
                    // Only possible if the flip landed in the length
                    // field AND the shorter/longer read still checks
                    // out — with CRC-32 over the payload a single-bit
                    // flip cannot do that.
                    panic!("single-bit flip accepted as a valid frame: {p:?}")
                }
                Frame::Torn | Frame::Eof => {}
            }
        },
    );
}
