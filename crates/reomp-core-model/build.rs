fn main() {
    println!("cargo:rustc-cfg=reomp_model");
}
