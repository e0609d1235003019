//! A socket world makes its sockets with `socketpair`, so it needs no
//! file system: it runs to its result with a `TMPDIR` under which nothing
//! can be created. A test binary of its own, because the environment is
//! per process.

#[test]
fn a_socket_world_needs_no_usable_tmpdir() {
    // `/dev/null` is not a directory, so nothing can be made under it.
    std::env::set_var("TMPDIR", "/dev/null/xmpi");
    assert!(std::fs::create_dir_all(std::env::temp_dir()).is_err());
    let out = xmpi::with_backend(xmpi::Backend::Socket, || {
        xmpi::launch::run(2, |c| {
            let mut v = vec![(c.rank() + 1) as f64];
            c.allreduce_sum(&mut v);
            v[0]
        })
    });
    assert_eq!(out.results, vec![3.0, 3.0]);
}
