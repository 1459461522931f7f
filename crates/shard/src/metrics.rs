//! Per-device and pool-wide accounting of one sharded run.

use desim::{Json, Time};

/// What one device did over the run.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceReport {
    pub device: usize,
    /// Configured speed factor.
    pub speed: f64,
    /// `false` once a fault killed the device.
    pub alive: bool,
    /// Groups committed (faulted pickups do not count).
    pub groups: u64,
    /// Steal operations this device initiated after draining.
    pub steals: u64,
    /// GPU busy time accumulated on this device.
    pub busy_ns: Time,
    /// Completion time of the device's last committed group.
    pub finish_ns: Time,
    /// `busy_ns` over the pool makespan.
    pub utilization: f64,
}

/// Pool-wide metrics of one sharded run.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardMetrics {
    pub devices: Vec<DeviceReport>,
    /// Batch size (stimulus).
    pub n: usize,
    pub cycles: u64,
    pub group_size: usize,
    pub num_groups: usize,
    /// Completion time of the whole batch.
    pub makespan: Time,
    pub total_steals: u64,
    pub faults_injected: u64,
    /// Groups put back on surviving devices after faults (includes each
    /// dead device's in-flight group and its remaining backlog).
    pub groups_requeued: u64,
    /// Aggregate host CPU busy time in `set_inputs`.
    pub set_inputs_busy: Time,
}

impl ShardMetrics {
    /// Mean GPU utilization across devices that committed work.
    pub fn mean_utilization(&self) -> f64 {
        let active: Vec<&DeviceReport> = self.devices.iter().filter(|d| d.groups > 0).collect();
        if active.is_empty() {
            return 0.0;
        }
        active.iter().map(|d| d.utilization).sum::<f64>() / active.len() as f64
    }

    /// Scaling efficiency against a single-device makespan of the same
    /// workload: `speedup / device count` (1.0 = perfect linear scaling).
    pub fn scaling_efficiency(&self, single_device_makespan: Time) -> f64 {
        if self.makespan == 0 || self.devices.is_empty() {
            return 0.0;
        }
        let speedup = single_device_makespan as f64 / self.makespan as f64;
        speedup / self.devices.len() as f64
    }

    /// Render the per-device table plus pool totals (the `shard-sim`
    /// report).
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "  {:>3}  {:>6}  {:>6}  {:>7}  {:>7}  {:>9}  {:>6}\n",
            "dev", "speed", "alive", "groups", "steals", "busy(ms)", "util%"
        ));
        for d in &self.devices {
            out.push_str(&format!(
                "  {:>3}  {:>6.2}  {:>6}  {:>7}  {:>7}  {:>9.2}  {:>6.1}\n",
                d.device,
                d.speed,
                if d.alive { "yes" } else { "DEAD" },
                d.groups,
                d.steals,
                d.busy_ns as f64 / 1e6,
                d.utilization * 100.0,
            ));
        }
        out.push_str(&format!(
            "  {} stimulus x {} cycles in {} groups of {}\n",
            self.n, self.cycles, self.num_groups, self.group_size
        ));
        out.push_str(&format!(
            "  makespan {}  steals {}  faults {}  requeued {}\n",
            desim::fmt_duration(self.makespan),
            self.total_steals,
            self.faults_injected,
            self.groups_requeued,
        ));
        out
    }

    /// Machine-readable snapshot (`shard-sim --json`).
    pub fn to_json(&self) -> Json {
        let devices: Vec<Json> = self
            .devices
            .iter()
            .map(|d| {
                Json::obj()
                    .field("device", d.device)
                    .field("speed", d.speed)
                    .field("alive", d.alive)
                    .field("groups", d.groups)
                    .field("steals", d.steals)
                    .field("busy_ns", d.busy_ns)
                    .field("finish_ns", d.finish_ns)
                    .field("utilization", d.utilization)
            })
            .collect();
        Json::obj()
            .field("n", self.n)
            .field("cycles", self.cycles)
            .field("group_size", self.group_size)
            .field("num_groups", self.num_groups)
            .field("makespan_ns", self.makespan)
            .field("total_steals", self.total_steals)
            .field("faults_injected", self.faults_injected)
            .field("groups_requeued", self.groups_requeued)
            .field("set_inputs_busy_ns", self.set_inputs_busy)
            .field("mean_utilization", self.mean_utilization())
            .field("devices", Json::Arr(devices))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics_of(devs: usize, makespan: Time) -> ShardMetrics {
        ShardMetrics {
            devices: (0..devs)
                .map(|d| DeviceReport {
                    device: d,
                    speed: 1.0,
                    alive: true,
                    groups: 4,
                    steals: 0,
                    busy_ns: makespan / 2,
                    finish_ns: makespan,
                    utilization: 0.5,
                })
                .collect(),
            n: 1024,
            cycles: 32,
            group_size: 256,
            num_groups: 4 * devs,
            makespan,
            total_steals: 0,
            faults_injected: 0,
            groups_requeued: 0,
            set_inputs_busy: 0,
        }
    }

    #[test]
    fn perfect_scaling_is_efficiency_one() {
        let m = metrics_of(4, 250);
        assert!((m.scaling_efficiency(1000) - 1.0).abs() < 1e-12);
        assert!((m.scaling_efficiency(500) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn json_has_device_array() {
        let j = metrics_of(2, 100).to_json().to_string();
        assert!(j.contains("\"devices\":[{"));
        assert!(j.contains("\"makespan_ns\":100"));
    }

    #[test]
    fn table_flags_dead_devices() {
        let mut m = metrics_of(2, 100);
        m.devices[1].alive = false;
        assert!(m.table().contains("DEAD"));
    }
}
