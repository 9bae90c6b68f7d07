//! Integration: every constructor boots through the one path that applies
//! `MsConfig.trace` and `MsConfig.chaos`.
//!
//! Both switches are process-global and only ever switched on, so these
//! tests live in their own binary (one process per integration-test file):
//! no other test has flipped them first.

use mst_core::{MsConfig, MsSystem, Value};
use mst_vkernel::fault::{self, ChaosConfig};

fn config() -> MsConfig {
    MsConfig {
        processors: 2,
        ..MsConfig::default()
    }
}

/// A fresh directory holding a snapshot of a just-booted system.
fn saved_image(tag: &str) -> (std::path::PathBuf, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("mst-config-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create image dir");
    let image = dir.join("boot.image");
    MsSystem::new(config())
        .save_snapshot_file(&image)
        .expect("image saves");
    (dir, image)
}

#[test]
fn a_template_booted_system_honours_trace() {
    let (dir, image) = saved_image("trace");
    let template = MsSystem::load_template(&image, config()).expect("template loads");
    assert!(!mst_telemetry::enabled(), "nothing asked for a trace yet");
    let mut ms = MsSystem::from_template(
        &template,
        MsConfig {
            trace: true,
            ..config()
        },
    )
    .expect("template boots");
    assert!(mst_telemetry::enabled());
    assert_eq!(ms.evaluate("3 + 4").unwrap(), Value::Int(7));
    ms.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_snapshot_booted_system_honours_chaos() {
    let (dir, image) = saved_image("chaos");
    assert!(!fault::enabled(), "nothing armed chaos yet");
    // One in a million: armed, but the sibling test's system runs on.
    let chaos = Some(ChaosConfig::new(17, 1e-6));
    let mut ms = MsSystem::from_snapshot_file(&image, MsConfig { chaos, ..config() })
        .expect("snapshot boots");
    let armed = fault::enabled();
    fault::disable();
    assert!(armed);
    assert_eq!(ms.evaluate("3 + 4").unwrap(), Value::Int(7));
    ms.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
