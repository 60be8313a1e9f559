"""The simulated memory system: objects, spaces, roots, remembered sets."""
