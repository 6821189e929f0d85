"""Outside-in benchmark of polycascade; see perfbench/README.md."""
