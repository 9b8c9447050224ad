"""Analysis of simulation outputs: the numbers the paper's text quotes."""
