"""Construction and certification of simply transitive transvection subgroups."""
