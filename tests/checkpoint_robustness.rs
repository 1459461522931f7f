//! The checkpoint decoder's robustness contract: `Checkpoint::decode`
//! is a *total* function over arbitrary bytes. A valid image round-trips
//! bit-exactly; every truncation, byte flip, trailing extension, and
//! random garbage buffer returns a structured [`CheckpointError`] —
//! never a panic, never a silently-wrong `Ok`. The sweep runs over a
//! real captured image (riscv-mini state after live cycles), so the
//! payload exercised is the one the cluster actually ships.

use rtlflow::{Benchmark, Checkpoint, CheckpointError, ExecConfig, Flow, GroupRunner, PortMap};

/// FNV-1a-64, re-implemented here so tests can craft images with valid
/// checksums but hostile headers (wrong magic/version) independently of
/// the production encoder.
fn fnv1a64(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    h
}

/// Patch the trailing checksum so only the deliberately-corrupted field
/// is wrong, isolating the header checks from the checksum check.
fn reseal(image: &mut [u8]) {
    let body = image.len() - 8;
    let sum = fnv1a64(&image[..body]);
    image[body..].copy_from_slice(&sum.to_le_bytes());
}

/// A checkpoint captured from real device state: riscv-mini, 6 stimulus,
/// 5 live cycles, so every payload bucket holds non-trivial values.
fn populated_checkpoint() -> (Flow, Checkpoint, Vec<u8>) {
    let flow = Flow::from_benchmark(Benchmark::RiscvMini).expect("elaborate riscv-mini");
    let map = PortMap::from_design(&flow.design);
    let n = 6;
    let source = stimulus::source_for(&flow.design, &map, n, 0xfeed);
    let mut runner = GroupRunner::new(&flow.program, ExecConfig::default(), n);
    for _ in 0..5 {
        runner.poke_source(&map, source.as_ref(), 0);
        runner.step();
    }
    let ck = runner.checkpoint(rtlir::design_hash(&flow.design), 0);
    let image = ck.encode();
    (flow, ck, image)
}

#[test]
fn valid_image_round_trips_and_restores() {
    let (flow, ck, image) = populated_checkpoint();
    let decoded = Checkpoint::decode(&image).expect("a freshly-encoded image must decode");
    assert_eq!(decoded, ck, "decode must invert encode bit-exactly");
    assert_eq!(decoded.cycle, 5);
    assert_eq!(decoded.design_hash, rtlir::design_hash(&flow.design));
    assert_eq!(decoded.n(), 6);
    let mut fresh = flow.program.plan.alloc_device(6);
    decoded
        .restore_into(&mut fresh)
        .expect("matching shape must restore");
    assert_eq!(
        Checkpoint::capture(&fresh, decoded.design_hash, 5, 0).encode(),
        image,
        "restored state must re-encode to the identical image"
    );
}

#[test]
fn every_prefix_truncation_is_a_structured_error() {
    let (_, _, image) = populated_checkpoint();
    for len in 0..image.len() {
        match Checkpoint::decode(&image[..len]) {
            Err(CheckpointError::Truncated { .. }) => {}
            other => panic!("prefix of {len}/{} bytes gave {other:?}", image.len()),
        }
    }
}

#[test]
fn every_single_byte_flip_is_rejected() {
    let (_, _, image) = populated_checkpoint();
    for at in 0..image.len() {
        let mut bad = image.clone();
        bad[at] ^= 0x40;
        assert!(
            Checkpoint::decode(&bad).is_err(),
            "flipping byte {at}/{} decoded successfully",
            image.len()
        );
    }
}

#[test]
fn trailing_bytes_are_garbage_not_ignored() {
    let (_, _, image) = populated_checkpoint();
    for extra in [1usize, 8, 72] {
        let mut bad = image.clone();
        bad.extend(std::iter::repeat_n(0xEE, extra));
        assert_eq!(
            Checkpoint::decode(&bad),
            Err(CheckpointError::TrailingGarbage { extra }),
            "{extra} appended bytes must be reported, not skipped"
        );
    }
}

#[test]
fn wrong_magic_and_version_are_named_even_with_a_valid_checksum() {
    let (_, _, image) = populated_checkpoint();

    let mut bad_magic = image.clone();
    bad_magic[..4].copy_from_slice(&0xdead_beefu32.to_le_bytes());
    reseal(&mut bad_magic);
    assert_eq!(
        Checkpoint::decode(&bad_magic),
        Err(CheckpointError::BadMagic(0xdead_beef))
    );

    // v1 images predate the checksum and are deliberately refused.
    let mut bad_version = image.clone();
    bad_version[4..8].copy_from_slice(&1u32.to_le_bytes());
    reseal(&mut bad_version);
    assert_eq!(
        Checkpoint::decode(&bad_version),
        Err(CheckpointError::BadVersion(1))
    );
}

#[test]
fn random_garbage_buffers_never_panic() {
    let mut s = 0x005e_ed0f_c0ff_ee00u64;
    for round in 0..64 {
        let len = (round * 37) % 4096;
        let mut buf = Vec::with_capacity(len);
        while buf.len() < len {
            s = stimulus::splitmix64(s);
            buf.extend_from_slice(&s.to_le_bytes());
        }
        buf.truncate(len);
        assert!(
            Checkpoint::decode(&buf).is_err(),
            "{len} bytes of seeded garbage decoded successfully"
        );
    }
}

#[test]
fn restore_into_wrong_shape_is_refused() {
    let (flow, _, image) = populated_checkpoint();
    let decoded = Checkpoint::decode(&image).unwrap();
    let mut wrong = flow.program.plan.alloc_device(7);
    match decoded.restore_into(&mut wrong) {
        Err(CheckpointError::ShapeMismatch { image, device }) => {
            assert_eq!(image[0], 6);
            assert_eq!(device[0], 7);
        }
        other => panic!("restoring into a 7-wide device gave {other:?}"),
    }
}
