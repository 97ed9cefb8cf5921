//! §5.5 memory-overhead check: the behaviour repository needs less than 5 KB
//! per VM per day even when the VM is analyzed every hour.

fn main() {
    print!("{}", bench::Figure::MemoryOverhead.render());
}
