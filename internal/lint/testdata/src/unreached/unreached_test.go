package main

// helper is test code: it is not reported, and its call does not reach.
func helper() { testOnly() }
