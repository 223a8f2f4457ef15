//! The `dramdig` command-line tool: a malformed command line exits 2 with
//! the usage text, a failing command exits 1.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = dramdig_cli::Command::parse(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}\n\n{}", dramdig_cli::usage());
        std::process::exit(2);
    });
    match dramdig_cli::execute(&command) {
        Ok(output) => print!("{output}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
