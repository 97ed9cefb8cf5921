//! §5.5 memory-overhead check: the behaviour repository needs less than 5 KB
//! per VM per day even when the VM is analyzed every hour.

use bench::memory_overhead_bytes_per_vm_day;

fn main() {
    let bytes = memory_overhead_bytes_per_vm_day();
    println!("# §5.5 — repository footprint per VM per day");
    println!("analyses_per_day,bytes,under_5kb");
    println!("24,{},{}", bytes, (bytes < 5 * 1024) as u8);
}
