//! List programs through the optimizer: length, append, membership, and
//! reverse — the "hierarchies, lists and heterogeneous structures" the
//! paper's introduction puts beyond relational query languages. Each is
//! safe only for the query forms whose bound argument descends a
//! well-founded structural order, and the optimizer proves exactly that.
//!
//! Run: `cargo run --example list_programs`

use ldl::Session;

fn main() {
    let mut s = Session::with_config(ldl::optimizer::OptConfig {
        assume_acyclic: true,
        ..Default::default()
    });
    s.load(
        r#"
        len([], 0).
        len([H | T], N) <- len(T, M), N = M + 1.

        app([], L, L).
        app([H | T], L, [H | R]) <- app(T, L, R).

        elem(X, [X | T]).
        elem(X, [H | T]) <- elem(X, T).

        rev([], []).
        rev([H | T], R) <- rev(T, RT), app(RT, [H], R).
        "#,
    )
    .unwrap();

    println!("len([10,20,30,40], N)?");
    for t in s.answers("len([10, 20, 30, 40], N)?").unwrap().iter() {
        println!("  N = {}", t.get(1));
    }

    println!("\napp([1,2], [3,4], Z)?");
    for t in s.answers("app([1, 2], [3, 4], Z)?").unwrap().iter() {
        println!("  Z = {}", t.get(2));
    }

    println!("\nelem(X, [a, b, c])?");
    let mut rows: Vec<String> = s
        .answers("elem(X, [a, b, c])?")
        .unwrap()
        .iter()
        .map(|t| format!("  X = {}", t.get(0)))
        .collect();
    rows.sort();
    for r in rows {
        println!("{r}");
    }

    println!("\nrev([1, 2, 3, 4], R)?");
    for t in s.answers("rev([1, 2, 3, 4], R)?").unwrap().iter() {
        println!("  R = {}", t.get(1));
    }

    // The free forms are unsafe — infinitely many lists.
    println!("\nlen(L, N)? (free form)");
    match s.answers("len(L, N)?") {
        Err(e) => println!("  {e}"),
        Ok(_) => println!("  unexpectedly accepted"),
    }
    println!(
        "\n(each form above was compiled separately; {} compilations)",
        s.compilations()
    );
}
