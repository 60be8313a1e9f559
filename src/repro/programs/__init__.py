"""The six benchmark programs of Table 2, ported to the runtime."""
